package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"selfstabsnap/internal/netsim"
)

// ErrBadWANSpec rejects a malformed WAN matrix specification. Validation
// rejects rather than clamps: a spec outside the legal envelope is a
// configuration bug the caller must fix, not something to silently repair.
var ErrBadWANSpec = errors.New("chaos: invalid WAN matrix spec")

// WANSpec describes an asymmetric wide-area topology: nodes are split into
// latency classes ("regions"), intra-region links are fast and clean,
// cross-region links are slow (scaling with region distance), lossy, and
// direction-asymmetric — the low→high region direction is Asym× slower,
// modelling the upload/download skew of real WANs. The paper's §2 model
// only assumes fair lossy channels with unknown delays, so any such matrix
// is a legal adversary; what it stretches is uniformity, which the
// uniform-coin Adversary could never exercise.
type WANSpec struct {
	// Regions is the number of latency classes, 2..n. Node i belongs to
	// region i·Regions/n (contiguous blocks, so every region is populated).
	Regions int `json:"regions"`
	// Local bounds the one-way delay of intra-region links (default 200µs).
	Local time.Duration `json:"local,omitempty"`
	// Cross bounds the one-way delay of adjacent-region links (default
	// 4ms); regions d apart get d·Cross. Must be ≥ Local.
	Cross time.Duration `json:"cross,omitempty"`
	// Asym ≥ 1 further inflates the low→high region direction (default 2).
	Asym float64 `json:"asym,omitempty"`
	// Jitter ∈ [0,1) is the fractional spread below each link's delay
	// ceiling: MinDelay = ceiling·(1−Jitter) (default 0.5).
	Jitter float64 `json:"jitter,omitempty"`
	// DropProb and DupProb apply to cross-region links only (intra-region
	// links stay clean); each must stay in [0, 0.5) so fair loss holds.
	DropProb float64 `json:"drop,omitempty"`
	DupProb  float64 `json:"dup,omitempty"`
	// BandwidthBps throttles cross-region links (0 = unbounded).
	BandwidthBps int64 `json:"bandwidth_bps,omitempty"`
}

func (s WANSpec) withDefaults() WANSpec {
	if s.Local <= 0 {
		s.Local = 200 * time.Microsecond
	}
	if s.Cross <= 0 {
		s.Cross = 4 * time.Millisecond
	}
	if s.Asym == 0 {
		s.Asym = 2
	}
	if s.Jitter == 0 {
		s.Jitter = 0.5
	}
	return s
}

// Validate checks the spec against an n-node cluster.
func (s WANSpec) Validate(n int) error {
	d := s.withDefaults()
	switch {
	case s.Regions < 2 || s.Regions > n:
		return fmt.Errorf("%w: Regions=%d must be in 2..n (n=%d)", ErrBadWANSpec, s.Regions, n)
	case s.Local < 0 || s.Cross < 0:
		return fmt.Errorf("%w: negative delay bound", ErrBadWANSpec)
	case d.Cross < d.Local:
		return fmt.Errorf("%w: Cross %v < Local %v", ErrBadWANSpec, d.Cross, d.Local)
	case s.Asym < 0 || (s.Asym > 0 && s.Asym < 1):
		return fmt.Errorf("%w: Asym=%v must be ≥ 1", ErrBadWANSpec, s.Asym)
	case s.Jitter < 0 || s.Jitter >= 1:
		return fmt.Errorf("%w: Jitter=%v must be in [0,1)", ErrBadWANSpec, s.Jitter)
	case s.DropProb < 0 || s.DropProb >= 0.5 || s.DupProb < 0 || s.DupProb >= 0.5:
		return fmt.Errorf("%w: DropProb/DupProb must be in [0,0.5) for fair loss", ErrBadWANSpec)
	case s.BandwidthBps < 0:
		return fmt.Errorf("%w: negative BandwidthBps", ErrBadWANSpec)
	}
	return nil
}

// Region returns node i's latency class under an n-node cluster.
func (s WANSpec) Region(i, n int) int {
	return i * s.withDefaults().Regions / n
}

// MaxCeiling bounds the one-way delay of the slowest link the matrix can
// contain (the most distant region pair, uphill, at maximum jitter scale).
// Schedulers use it to size network-flush windows around restarts.
func (s WANSpec) MaxCeiling() time.Duration {
	d := s.withDefaults()
	worst := time.Duration(float64(d.Cross) * float64(d.Regions-1) * d.Asym)
	return worst + worst/4 // the per-link jitter scale reaches 1.25×
}

// Matrix builds the n×n link matrix for the spec, deterministically from
// seed: each link's delay ceiling is scaled by a seeded per-link factor in
// [0.75, 1.25] so no two links are identical, and MinDelay = Jitter
// fraction below the ceiling. The result plugs into netsim.Config.Links.
func (s WANSpec) Matrix(n int, seed int64) netsim.LinkMatrix {
	d := s.withDefaults()
	rng := rand.New(rand.NewSource(seed ^ 0x57414e)) // "WAN"
	m := netsim.NewLinkMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ri, rj := d.Region(i, n), d.Region(j, n)
			scale := 0.75 + 0.5*rng.Float64()
			var p netsim.LinkProfile
			if ri == rj {
				max := time.Duration(float64(d.Local) * scale)
				p.MinDelay = time.Duration(float64(max) * (1 - d.Jitter))
				p.MaxDelay = max
			} else {
				dist := ri - rj
				if dist < 0 {
					dist = -dist
				}
				ceiling := float64(d.Cross) * float64(dist)
				if ri < rj { // uphill: low → high region
					ceiling *= d.Asym
				}
				max := time.Duration(ceiling * scale)
				p.MinDelay = time.Duration(float64(max) * (1 - d.Jitter))
				p.MaxDelay = max
				p.DropProb = d.DropProb
				p.DupProb = d.DupProb
				p.BandwidthBps = d.BandwidthBps
			}
			m[i][j] = p
		}
	}
	return m
}
