package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// Bucket layout of Histogram: bucket 0 is the underflow bucket
// (d < HistMin); buckets 1..NumBuckets-2 are log-spaced between HistMin
// and HistMax with a constant width ratio; the last bucket is the
// overflow bucket (d ≥ HistMax). The spacing gives ~35% relative bucket
// width, so interpolated quantiles land within one bucket of the exact
// order statistic.
const (
	// NumBuckets is the fixed number of histogram buckets.
	NumBuckets = 64
	// HistMin is the lower edge of the first log-spaced bucket.
	HistMin = time.Microsecond
	// HistMax is the upper edge of the last log-spaced bucket.
	HistMax = 100 * time.Second
)

// boundNS[i] is the exclusive upper edge, in nanoseconds, of bucket i for
// i in 0..NumBuckets-2; the overflow bucket has no upper edge.
var boundNS [NumBuckets - 1]int64

func init() {
	lo, hi := float64(HistMin.Nanoseconds()), float64(HistMax.Nanoseconds())
	// NumBuckets-2 log-spaced steps carry bucket 1's lower edge (HistMin)
	// to the overflow edge (HistMax).
	ratio := math.Pow(hi/lo, 1/float64(NumBuckets-2))
	for i := range boundNS {
		boundNS[i] = int64(math.Round(lo * math.Pow(ratio, float64(i))))
	}
	boundNS[0] = HistMin.Nanoseconds()
	boundNS[NumBuckets-2] = HistMax.Nanoseconds()
}

// BucketIndex returns the bucket d falls into. Exported for tests that
// assert quantile accuracy in units of buckets.
func BucketIndex(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	// Binary search: smallest i with ns < boundNS[i].
	lo, hi := 0, len(boundNS)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns < boundNS[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // == NumBuckets-1 (overflow) when ns >= boundNS[last]
}

// BucketRange returns the [lo, hi) edges of the bucket containing d. The
// underflow bucket starts at 0; the overflow bucket's hi is reported as
// math.MaxInt64 nanoseconds.
func BucketRange(d time.Duration) (lo, hi time.Duration) {
	i := BucketIndex(d)
	return bucketLo(i), bucketHi(i)
}

func bucketLo(i int) time.Duration {
	if i == 0 {
		return 0
	}
	return time.Duration(boundNS[i-1])
}

func bucketHi(i int) time.Duration {
	if i >= len(boundNS) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(boundNS[i])
}

// Histogram is a fixed-size, lock-free latency histogram: every Observe
// is a handful of atomic adds, and the memory footprint is constant no
// matter how many samples are recorded. Count, Sum, Min and Max are exact;
// quantiles are interpolated within their log-spaced bucket. The zero
// value is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	minNS1  atomic.Int64 // min in ns, stored +1 so 0 means "unset"
	buckets [NumBuckets]atomic.Int64
}

// Observe records one sample. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[BucketIndex(time.Duration(ns))].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.minNS1.Load()
		if (cur != 0 && cur <= ns+1) || h.minNS1.CompareAndSwap(cur, ns+1) {
			break
		}
	}
}

// Count returns the number of samples observed so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Reset zeroes every counter. Not atomic with respect to concurrent
// Observe calls; intended for between-run reuse.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sumNS.Store(0)
	h.maxNS.Store(0)
	h.minNS1.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot captures a point-in-time copy of the histogram, from which
// quantiles and summary statistics are computed without further
// synchronisation.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = time.Duration(h.sumNS.Load())
	s.Max = time.Duration(h.maxNS.Load())
	if m := h.minNS1.Load(); m > 0 {
		s.Min = time.Duration(m - 1)
	}
	return s
}

// HistogramSnapshot is a consistent copy of a Histogram's counters.
// Count is the sum of Counts, so rank arithmetic is internally coherent
// even if samples landed while the snapshot was taken.
type HistogramSnapshot struct {
	Counts   [NumBuckets]int64
	Count    int64
	Sum      time.Duration
	Min, Max time.Duration
}

// Mean returns the exact arithmetic mean (Sum/Count), 0 when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// ValueAtRank returns an estimate of the rank-th smallest sample
// (0-based), matching the sorted-slice indexing the exact recorder used:
// rank 0 is Min exactly and rank Count-1 is Max exactly; interior ranks
// interpolate linearly within their bucket, clamped to [Min, Max].
func (s HistogramSnapshot) ValueAtRank(rank int64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if rank <= 0 {
		return s.Min
	}
	if rank >= s.Count-1 {
		return s.Max
	}
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if rank < cum+c {
			lo, hi := bucketLo(i), bucketHi(i)
			if lo < s.Min {
				lo = s.Min
			}
			if hi > s.Max {
				hi = s.Max
			}
			frac := (float64(rank-cum) + 0.5) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return s.Max
}

// Quantile returns the value at rank ⌊q·Count⌋/100 for q in [0,100] —
// the same integer index arithmetic the exact sorted-slice summary used
// (samples[(n*q)/100]), so histogram quantiles stay comparable with
// historical numbers. Note the small-n consequence: for n ≤ 100 the p99
// rank is n·99/100 = n-1, i.e. P99 equals Max exactly.
func (s HistogramSnapshot) Quantile(q int64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.ValueAtRank(s.Count * q / 100)
}

// QuantilePermille returns the value at rank ⌊Count·q/1000⌋ for q in
// [0, 1000] — the permille analogue of Quantile, for tail quantiles like
// p99.9 (q = 999). The same small-n caveat applies one decade later: for
// n ≤ 1000 the p99.9 rank is n-1, so it equals Max exactly.
func (s HistogramSnapshot) QuantilePermille(q int64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.ValueAtRank(s.Count * q / 1000)
}

// WritePrometheus renders the histogram in Prometheus text exposition
// format under the given metric name: cumulative <name>_bucket series
// with `le` labels in seconds, plus <name>_sum and <name>_count.
func (h *Histogram) WritePrometheus(w io.Writer, name string) {
	s := h.Snapshot()
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if i < len(boundNS) {
			le := strconv.FormatFloat(float64(boundNS[i])/1e9, 'g', -1, 64)
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		}
	}
	fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(s.Sum.Seconds(), 'g', -1, 64))
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}

// Stats summarises the recorded samples without sorting anything: one
// pass over the bucket counters. Count, Mean, Min and Max are exact;
// P50/P90/P99/P999 are interpolated within their bucket.
func (h *Histogram) Stats() LatencyStats {
	s := h.Snapshot()
	st := LatencyStats{Count: int(s.Count)}
	if st.Count == 0 {
		return st
	}
	st.Mean = s.Mean()
	st.Min = s.Min
	st.Max = s.Max
	st.P50 = s.Quantile(50)
	st.P90 = s.Quantile(90)
	st.P99 = s.Quantile(99)
	st.P999 = s.QuantilePermille(999)
	return st
}

// LatencyStats summarises a latency distribution. Quantiles follow the
// historical sorted-slice indexing, value-at-rank ⌊n·q/100⌋ — which pins
// the small-n semantics: for n ≤ 100 that p99 rank is n-1, so P99 equals
// Max exactly (and for n = 1, P50 does too). Larger n interpolate within
// a histogram bucket.
type LatencyStats struct {
	Count               int
	Mean, Min, Max, P50 time.Duration
	P90                 time.Duration
	P99                 time.Duration
	// P999 is the p99.9 tail (rank ⌊n·999/1000⌋); for n ≤ 1000 it equals
	// Max exactly, by the same indexing convention as P99 at n ≤ 100.
	P999 time.Duration
}

// String renders the stats on one line.
func (s LatencyStats) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v p99.9=%v max=%v", s.Count, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
}
