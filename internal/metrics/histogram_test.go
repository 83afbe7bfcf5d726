package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketEdges(t *testing.T) {
	if got := BucketIndex(0); got != 0 {
		t.Errorf("BucketIndex(0) = %d, want 0 (underflow)", got)
	}
	if got := BucketIndex(HistMin - 1); got != 0 {
		t.Errorf("BucketIndex(<1µs) = %d, want 0", got)
	}
	if got := BucketIndex(HistMin); got != 1 {
		t.Errorf("BucketIndex(1µs) = %d, want 1", got)
	}
	if got := BucketIndex(HistMax); got != NumBuckets-1 {
		t.Errorf("BucketIndex(100s) = %d, want overflow %d", got, NumBuckets-1)
	}
	if got := BucketIndex(time.Hour); got != NumBuckets-1 {
		t.Errorf("BucketIndex(1h) = %d, want overflow %d", got, NumBuckets-1)
	}
	// Monotone, gap-free coverage: every bucket's hi is the next one's lo.
	for i := 0; i < NumBuckets-1; i++ {
		lo, hi := bucketLo(i), bucketHi(i)
		if hi <= lo {
			t.Fatalf("bucket %d: hi %v <= lo %v", i, hi, lo)
		}
		if next := bucketLo(i + 1); next != hi {
			t.Fatalf("bucket %d/%d boundary gap: %v vs %v", i, i+1, hi, next)
		}
	}
}

func TestHistogramExactAggregates(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Mean() != 0 || s.Quantile(99) != 0 {
		t.Errorf("zero-value histogram not empty: %+v", s)
	}
	var sum time.Duration
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * time.Millisecond
		h.Observe(d)
		sum += d
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Sum != sum {
		t.Errorf("sum = %v, want %v (must be exact)", s.Sum, sum)
	}
	if s.Min != time.Millisecond || s.Max != 1000*time.Millisecond {
		t.Errorf("min/max = %v/%v (must be exact)", s.Min, s.Max)
	}
	if s.Mean() != sum/1000 {
		t.Errorf("mean = %v, want %v", s.Mean(), sum/1000)
	}
}

// TestHistogramQuantileWithinOneBucket: interpolated quantiles must land
// within one bucket of the exact order statistic, across several sample
// distributions spanning the full µs–s range.
func TestHistogramQuantileWithinOneBucket(t *testing.T) {
	distributions := map[string]func(r *rand.Rand) time.Duration{
		"uniform-ms": func(r *rand.Rand) time.Duration {
			return time.Duration(1+r.Intn(50_000)) * time.Microsecond
		},
		"log-spread": func(r *rand.Rand) time.Duration {
			return time.Duration(float64(time.Microsecond) * (1 + 1e6*r.Float64()*r.Float64()*r.Float64()))
		},
		"bimodal": func(r *rand.Rand) time.Duration {
			if r.Intn(10) == 0 {
				return time.Duration(1+r.Intn(900)) * time.Millisecond
			}
			return time.Duration(50+r.Intn(400)) * time.Microsecond
		},
	}
	for name, draw := range distributions {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			var h Histogram
			samples := make([]time.Duration, 0, 20_000)
			for i := 0; i < 20_000; i++ {
				d := draw(r)
				h.Observe(d)
				samples = append(samples, d)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			s := h.Snapshot()
			for _, q := range []int64{50, 90, 99} {
				exact := samples[int64(len(samples))*q/100]
				approx := s.Quantile(q)
				if diff := BucketIndex(approx) - BucketIndex(exact); diff < -1 || diff > 1 {
					t.Errorf("p%d: approx %v (bucket %d) vs exact %v (bucket %d): off by %d buckets",
						q, approx, BucketIndex(approx), exact, BucketIndex(exact), diff)
				}
			}
		})
	}
}

func TestHistogramRankEndpoints(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	h.Observe(90 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	s := h.Snapshot()
	if got := s.ValueAtRank(0); got != 3*time.Millisecond {
		t.Errorf("rank 0 = %v, want exact min", got)
	}
	if got := s.ValueAtRank(2); got != 90*time.Millisecond {
		t.Errorf("rank n-1 = %v, want exact max", got)
	}
	if got := s.ValueAtRank(999); got != 90*time.Millisecond {
		t.Errorf("rank beyond n clamps to max, got %v", got)
	}
	mid := s.ValueAtRank(1)
	if mid < 3*time.Millisecond || mid > 90*time.Millisecond {
		t.Errorf("interior rank %v outside [min, max]", mid)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 40_000 {
		t.Errorf("lost samples: %d", s.Count)
	}
	if s.Min != 0 || s.Max != 11_999*time.Microsecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestHistogramWritePrometheus(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // underflow bucket
	h.Observe(3 * time.Millisecond)
	h.Observe(200 * time.Second) // overflow bucket
	var b strings.Builder
	h.WritePrometheus(&b, "op_latency_seconds")
	metrics, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, b.String())
	}
	if got := metrics[`op_latency_seconds_bucket{le="+Inf"}`]; got != 3 {
		t.Errorf("+Inf bucket = %v, want 3", got)
	}
	if got := metrics["op_latency_seconds_count"]; got != 3 {
		t.Errorf("count = %v", got)
	}
	// Cumulative monotonicity across the rendered buckets.
	var prev float64 = -1
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "op_latency_seconds_bucket") {
			continue
		}
		v := metrics[line[:strings.LastIndexByte(line, ' ')]]
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = v
	}
}
