package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule. xs is sorted in place. An empty sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// reservoir keeps a uniform random sample of at most cap(xs) values
// (Algorithm R). Latencies are kept this way so the benchmark's own memory
// stays fixed however many operations a run completes, and does not grow
// the heap that peak_heap_mb measures. The 99th percentile of a 20000-value
// sample has 200 values beyond it.
type reservoir struct {
	xs  []float64
	n   int64
	rng *rand.Rand
}

const reservoirCap = 20000

func newReservoir(seed int64) *reservoir {
	return &reservoir{xs: make([]float64, 0, reservoirCap), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(x float64) {
	r.n++
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, x)
		return
	}
	if j := r.rng.Int63n(r.n); j < int64(len(r.xs)) {
		r.xs[j] = x
	}
}

// hist is a concurrency-safe log-linear histogram of non-negative integer
// samples (nanoseconds, bytes, queue depths): 64 linear sub-buckets per
// power of two, so a reported quantile is within 1.6% of the true sample.
// The traced run records millions of samples per second from many
// goroutines; a fixed bucket array keeps that allocation-free.
type hist struct {
	b [64 * 64]atomic.Int64
	n atomic.Int64
}

const histSub = 64

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 7 // v>>e lies in [64,128)
	return (e+1)*histSub + int(v>>e) - histSub
}

func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := i/histSub - 1
	m := int64(i%histSub + histSub)
	// Midpoint of the bucket [m<<e, (m+1)<<e).
	return float64(m<<e) + float64(int64(1)<<e)/2
}

func (h *hist) add(v int64) {
	i := histIndex(v)
	if i >= len(h.b) {
		i = len(h.b) - 1
	}
	h.b[i].Add(1)
	h.n.Add(1)
}

func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.b {
		seen += h.b[i].Load()
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(len(h.b) - 1)
}

// procSample is the process-level resource usage the benchmark reads at
// the edges of the measured window.
type procSample struct {
	at       time.Time
	cpu      time.Duration // user + system
	ctxSw    int64         // voluntary + involuntary context switches
	syscr    int64         // read-type syscalls (/proc/self/io)
	syscw    int64         // write-type syscalls (/proc/self/io)
	alloc    uint64        // cumulative heap bytes allocated
	gcCPU    float64       // cumulative GC CPU seconds
	totalCPU float64       // cumulative CPU seconds seen by the runtime
}

var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleProc() procSample {
	s := procSample{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.ctxSw = ru.Nvcsw + ru.Nivcsw
	}
	s.syscr, s.syscw = readProcIO()
	ms := make([]metrics.Sample, len(rtMetricNames))
	for i, name := range rtMetricNames {
		ms[i].Name = name
	}
	metrics.Read(ms)
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.alloc = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = ms[2].Value.Float64()
	}
	return s
}

// readProcIO returns the process's read and write syscall counts. Socket
// reads and writev calls are counted there, which is how the traced run
// attributes syscalls to tcpnet frames without touching tcpnet.
func readProcIO() (syscr, syscw int64) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, found := strings.Cut(sc.Text(), ":")
		if !found {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// heapPeak samples the live heap — the bytes the collector marked
// reachable at its latest cycle — every 5ms while active. Sampling the
// marked heap rather than the instantaneous one makes a sample independent
// of where in a collection cycle it falls, and of the collector's minimum
// heap size. It reads runtime/metrics, which does not stop the world, and
// it is active only while clients run, so the correctness check between
// segments does not count.
type heapPeak struct {
	active  atomic.Bool
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []float64 // MiB
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if h.active.Load() && s[0].Value.Kind() == metrics.KindUint64 {
				h.mu.Lock()
				h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and waits for it.
func (h *heapPeak) finish() {
	close(h.stop)
	<-h.done
}

// peakMB returns the 99th percentile of the samples: the live heap at the
// busiest 1% of client time. The maximum would follow a single
// collection's spike.
func (h *heapPeak) peakMB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return percentile(h.samples, 0.99)
}

// fingerprint identifies the machine a result came from. Results are
// comparable only when every field but the measured overshoot matches and
// the overshoots fall in the same class (see key).
type fingerprint struct {
	GOMAXPROCS       int     `json:"gomaxprocs"`
	NumCPU           int     `json:"nproc"`
	CPUModel         string  `json:"cpu_model"`
	GoVersion        string  `json:"go_version"`
	Kernel           string  `json:"kernel"`
	TimerOvershootUS float64 `json:"timer_overshoot_us"`
}

func takeFingerprint() fingerprint {
	return fingerprint{
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		CPUModel:         cpuModel(),
		GoVersion:        runtime.Version(),
		Kernel:           kernelRelease(),
		TimerOvershootUS: timerOvershoot(),
	}
}

// overshootClass buckets the timer overshoot coarsely: it decides whether
// ticks, retransmits and netsim waits are set by the configured intervals
// or by the platform's timer slack, and run-to-run jitter must not flip it.
func overshootClass(us float64) string {
	switch {
	case us < 200:
		return "fine(<200us)"
	case us < 2000:
		return "coarse(200us-2ms)"
	default:
		return "very-coarse(>2ms)"
	}
}

// key is what two results must share to be compared.
func (f fingerprint) key() string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s kernel=%s timer=%s",
		f.GOMAXPROCS, f.NumCPU, f.CPUModel, f.GoVersion, f.Kernel, overshootClass(f.TimerOvershootUS))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// timerOvershoot is the median lateness of a 100µs sleep, in µs: the floor
// under every tick, retransmit and netsim delay on the machine.
func timerOvershoot() float64 {
	const want = 100 * time.Microsecond
	xs := make([]float64, 0, 31)
	for i := 0; i < cap(xs); i++ {
		t0 := time.Now()
		time.Sleep(want)
		xs = append(xs, float64(time.Since(t0)-want)/float64(time.Microsecond))
	}
	return median(xs)
}
