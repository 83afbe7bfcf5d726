package metrics

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestHistogramBoundedMemory is the regression test for the
// unbounded-growth bug: latency recording used to append every sample to
// a slice, so a 10M-operation metered run held 80MB+ of samples (and grew
// without bound). The histogram must stay O(1): flat heap across 10M
// observations and zero allocations per Observe call.
func TestHistogramBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-record soak")
	}
	var l Histogram
	warm := func(n int) {
		for i := 0; i < n; i++ {
			l.Observe(time.Duration(i%1_000_000) * time.Microsecond)
		}
	}
	warm(1000) // fault in any lazy state before measuring

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	warm(10_000_000)
	runtime.GC()
	runtime.ReadMemStats(&after)

	// HeapAlloc after a GC must not have grown materially: allow 1MB of
	// slack for runtime noise — the old implementation grew by ~80MB here.
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Errorf("heap grew by %d bytes across 10M records; latency recording is not O(1)", grown)
	}
	if st := l.Stats(); st.Count != 10_001_000 {
		t.Errorf("count = %d", st.Count)
	}

	if !raceEnabled {
		if allocs := testing.AllocsPerRun(1000, func() { l.Observe(time.Millisecond) }); allocs != 0 {
			t.Errorf("Observe allocates %.1f objects per call, want 0", allocs)
		}
	}
}

// TestLatencyStatsDoesNotSort: Stats must be a constant-work pass over the
// bucket counters — no copy of the samples, no sort. With 1M recorded
// samples the old implementation allocated an 8MB scratch slice per call;
// the histogram-backed one allocates nothing.
func TestLatencyStatsDoesNotSort(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting under -race")
	}
	var l Histogram
	for i := 0; i < 1_000_000; i++ {
		l.Observe(time.Duration(i) * time.Microsecond)
	}
	var sink LatencyStats
	if allocs := testing.AllocsPerRun(100, func() { sink = l.Stats() }); allocs != 0 {
		t.Errorf("Stats allocates %.1f objects per call on a 1M-sample recorder, want 0", allocs)
	}
	if sink.Count != 1_000_000 {
		t.Errorf("count = %d", sink.Count)
	}
}

// TestLatencyP99SmallN pins the small-n quantile semantics inherited from
// the sorted-slice implementation (value at rank ⌊n·99/100⌋): for n ≤ 100
// that rank is n-1, so P99 IS the maximum — a single slow outlier in a
// 10-operation run reads as "p99", which is correct for the indexing but
// surprising if unstated. These tests state it.
func TestLatencyP99SmallN(t *testing.T) {
	mk := func(n int) LatencyStats {
		var l Histogram
		for i := 1; i <= n; i++ {
			l.Observe(time.Duration(i) * time.Millisecond)
		}
		return l.Stats()
	}

	for _, n := range []int{1, 10, 99, 100} {
		st := mk(n)
		if st.P99 != st.Max {
			t.Errorf("n=%d: P99 = %v, want Max = %v (rank ⌊n·99/100⌋ = n-1 for n ≤ 100)", n, st.P99, st.Max)
		}
		if st.Max != time.Duration(n)*time.Millisecond {
			t.Errorf("n=%d: Max = %v (must be exact)", n, st.Max)
		}
	}

	// n=1: every summary statistic collapses to the single sample.
	st := mk(1)
	if st.P50 != time.Millisecond || st.Min != time.Millisecond || st.Mean != time.Millisecond {
		t.Errorf("n=1 stats not the sample itself: %+v", st)
	}

	// n=101 is the first n whose p99 rank (99) is below n-1, so P99 may
	// drop below Max — but never above it.
	var l Histogram
	for i := 1; i <= 101; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	if st := l.Stats(); st.P99 > st.Max {
		t.Errorf("n=101: P99 %v > Max %v", st.P99, st.Max)
	}
}

// TestLatencyGoldenQuantiles compares histogram quantiles against the
// exact sorted-slice values on a golden sample set: they must agree to
// within one log bucket (~35% relative width) — the accuracy contract
// that keeps BENCH_*.json latency columns comparable across the
// implementation change.
func TestLatencyGoldenQuantiles(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var l Histogram
	samples := make([]time.Duration, 0, 50_000)
	for i := 0; i < 50_000; i++ {
		// Mixture resembling real operation latencies: a fast mode around
		// hundreds of µs, a slow tail into tens of ms.
		var d time.Duration
		if r.Intn(20) == 0 {
			d = time.Duration(1+r.Intn(50_000)) * time.Microsecond
		} else {
			d = time.Duration(100+r.Intn(900)) * time.Microsecond
		}
		l.Observe(d)
		samples = append(samples, d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	st := l.Stats()
	n := len(samples)

	for _, tc := range []struct {
		name  string
		got   time.Duration
		exact time.Duration
	}{
		{"p50", st.P50, samples[n/2]},
		{"p90", st.P90, samples[n*90/100]},
		{"p99", st.P99, samples[n*99/100]},
	} {
		if diff := BucketIndex(tc.got) - BucketIndex(tc.exact); diff < -1 || diff > 1 {
			lo, hi := BucketRange(tc.exact)
			t.Errorf("%s: histogram %v vs exact %v: outside one bucket width of [%v,%v)",
				tc.name, tc.got, tc.exact, lo, hi)
		}
	}
	if st.Min != samples[0] || st.Max != samples[n-1] {
		t.Errorf("min/max drifted: %v/%v vs %v/%v", st.Min, st.Max, samples[0], samples[n-1])
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	if st.Mean != sum/time.Duration(n) {
		t.Errorf("mean %v, want exact %v", st.Mean, sum/time.Duration(n))
	}
}
