package deltasnap

import (
	"sync"
	"time"

	"selfstabsnap/internal/metrics"
)

// TunerConfig parameterises the adaptive-δ controller. The zero value
// gets sensible defaults.
type TunerConfig struct {
	// Min and Max clamp δ (defaults 0 and 64).
	Min, Max int64
	// TargetRatio is the snapshot/write mean-latency ratio the controller
	// steers toward (default 8): δ trades snapshot latency (low δ recruits
	// helpers sooner) against write latency and communication (high δ lets
	// writes through and keeps snapshots solo).
	TargetRatio float64
	// Band is the multiplicative dead zone around TargetRatio (default 2):
	// no adjustment while the observed ratio stays within
	// [TargetRatio/Band, TargetRatio·Band], which gives the ±1 steps
	// hysteresis instead of oscillating every observation.
	Band float64
	// MinSamples is how many new samples of each kind a window needs
	// before it counts (default 4).
	MinSamples int
}

func (c TunerConfig) withDefaults() TunerConfig {
	if c.Max <= 0 {
		c.Max = 64
	}
	if c.Min < 0 {
		c.Min = 0
	}
	if c.TargetRatio <= 0 {
		c.TargetRatio = 8
	}
	if c.Band <= 1 {
		c.Band = 2
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	return c
}

type cumLatency struct {
	count int
	sum   time.Duration
}

// Tuner turns the live write/snapshot latency histograms into ±1
// adjustments of δ — the paper's E-series latency/communication trade-off
// measured continuously instead of swept offline. Observe is fed
// cumulative LatencyStats (as returned by metrics.Histogram.Stats);
// the tuner differences consecutive observations into windows, so each
// decision reflects only recent operations. Safe for concurrent use.
type Tuner struct {
	cfg TunerConfig

	mu          sync.Mutex
	delta       int64
	prevW       cumLatency
	prevS       cumLatency
	adjustments int64
}

// NewTuner creates a tuner starting from the given δ.
func NewTuner(initial int64, cfg TunerConfig) *Tuner {
	cfg = cfg.withDefaults()
	if initial < cfg.Min {
		initial = cfg.Min
	}
	if initial > cfg.Max {
		initial = cfg.Max
	}
	return &Tuner{cfg: cfg, delta: initial}
}

// Delta returns the tuner's current δ.
func (t *Tuner) Delta() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.delta
}

// Adjustments returns how many times Observe changed δ.
func (t *Tuner) Adjustments() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.adjustments
}

// Observe feeds one pair of cumulative latency summaries and returns the
// (possibly adjusted) δ plus whether it changed. Windows with fewer than
// MinSamples new operations of either kind keep accumulating and change
// nothing; a window whose snapshot/write latency ratio leaves the dead
// band moves δ one step toward the target — snapshots too slow relative
// to writes recruit helpers sooner (δ−1), comfortably fast snapshots
// yield to writes (δ+1).
func (t *Tuner) Observe(write, snap metrics.LatencyStats) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()

	curW := cumLatency{count: write.Count, sum: time.Duration(write.Count) * write.Mean}
	curS := cumLatency{count: snap.Count, sum: time.Duration(snap.Count) * snap.Mean}

	// A cumulative count moving backwards means the recorder was swapped
	// or reset; resynchronise the window baseline.
	if curW.count < t.prevW.count || curS.count < t.prevS.count {
		t.prevW, t.prevS = curW, curS
		return t.delta, false
	}

	dW := cumLatency{count: curW.count - t.prevW.count, sum: curW.sum - t.prevW.sum}
	dS := cumLatency{count: curS.count - t.prevS.count, sum: curS.sum - t.prevS.sum}
	if dW.count < t.cfg.MinSamples || dS.count < t.cfg.MinSamples {
		return t.delta, false
	}
	t.prevW, t.prevS = curW, curS

	wMean := float64(dW.sum) / float64(dW.count)
	sMean := float64(dS.sum) / float64(dS.count)
	if wMean <= 0 {
		return t.delta, false
	}
	ratio := sMean / wMean

	next := t.delta
	switch {
	case ratio > t.cfg.TargetRatio*t.cfg.Band && next > t.cfg.Min:
		next--
	case ratio < t.cfg.TargetRatio/t.cfg.Band && next < t.cfg.Max:
		next++
	}
	if next == t.delta {
		return t.delta, false
	}
	t.delta = next
	t.adjustments++
	return t.delta, true
}
