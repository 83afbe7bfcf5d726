package bench

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestDispatchSpeedupFloor is the cheap always-on acceptance check for
// sharded dispatch of a single object: at 4 shards the mixed workload must
// move at least 3× the messages per virtual second of the classic single
// dispatcher, and the p99.9 sojourn time must drop. Virtual-clock
// determinism makes both assertions stable, not load-dependent.
func TestDispatchSpeedupFloor(t *testing.T) {
	checkScalingFloor(t, 1, 4)
}

// TestMultiObjectScalingFloor is the same acceptance check at a 64-object
// mix: with 8 shards the aggregate message rate must be at least 3× the
// single dispatcher's, and the p99.9 sojourn time must drop.
func TestMultiObjectScalingFloor(t *testing.T) {
	checkScalingFloor(t, 64, 8)
}

// checkScalingFloor runs the mixed workload over objects objects with one
// shard and with shards shards, and asserts a ≥ 3× throughput gain and a
// lower p99.9 sojourn time for the sharded run.
func checkScalingFloor(t *testing.T, objects, shards int) {
	t.Helper()
	base := runMultiObject(moSenders, objects, 100, 1)
	sharded := runMultiObject(moSenders, objects, 100, shards)
	if base.msgPerS <= 0 || sharded.msgPerS/base.msgPerS < 3 {
		t.Errorf("objects=%d: speedup at %d shards = %.2fx (%.0f vs %.0f msg/s), want ≥ 3x",
			objects, shards, sharded.msgPerS/base.msgPerS, sharded.msgPerS, base.msgPerS)
	}
	if sharded.p999 >= base.p999 {
		t.Errorf("objects=%d: p99.9 did not improve: %v (shards=%d) vs %v (shards=1)",
			objects, sharded.p999, shards, base.p999)
	}
}

// TestMultiObjectIsolationFloor is the acceptance check for the isolation
// half: saturating object 0 must leave the cold objects' p99 within 2× of
// the quiet baseline — the per-object fair lanes, not luck, bound the
// interference.
func TestMultiObjectIsolationFloor(t *testing.T) {
	quietP99, quietOps := runMultiObjectIsolation(16, 60, 0, 4)
	hotP99, hotOps := runMultiObjectIsolation(16, 60, 400, 4)
	if want := int64(moSenders * 60); quietOps < want || hotOps < want {
		t.Fatalf("cold traffic did not complete: quiet %d, hot %d, want %d", quietOps, hotOps, want)
	}
	if quietP99 <= 0 {
		t.Fatal("no cold latency recorded")
	}
	if degr := float64(hotP99) / float64(quietP99); degr >= 2 {
		t.Fatalf("cold p99 degraded %.2fx under a hot neighbour (%v vs %v), want < 2x",
			degr, hotP99, quietP99)
	}
}

// TestMultiObjectRegressionGuard replays the full multi-object grid and
// compares every throughput, tail-latency and isolation cell against the
// committed baseline (BENCH_multiobject.json at the repo root), failing on
// >10% regression. Gated behind MULTIOBJECT_GUARD=1 like the deltagossip
// guard; improvements pass, and the baseline is regenerated with
// `go run ./cmd/benchrunner -exp multiobject -json` to ratchet.
func TestMultiObjectRegressionGuard(t *testing.T) {
	if os.Getenv("MULTIOBJECT_GUARD") == "" {
		t.Skip("set MULTIOBJECT_GUARD=1 to compare against the committed baseline")
	}
	raw, err := os.ReadFile("../../BENCH_multiobject.json")
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if base.Quick || len(base.Tables) != 2 {
		t.Fatalf("baseline must be a full (non-quick) two-table run, got quick=%v tables=%d",
			base.Quick, len(base.Tables))
	}

	fresh := RunMultiObject(Params{})
	cell := func(row []string, col int) float64 {
		s := strings.TrimSuffix(strings.TrimSuffix(row[col], "x"), "ms")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("unparseable cell %q: %v", row[col], err)
		}
		return v
	}

	scaling, baseScaling := fresh[0], base.Tables[0]
	if len(scaling.Rows) != len(baseScaling.Rows) {
		t.Fatalf("scaling grid changed: %d rows vs %d in baseline — regenerate the baseline",
			len(scaling.Rows), len(baseScaling.Rows))
	}
	for i, got := range scaling.Rows {
		want := baseScaling.Rows[i]
		if got[0] != want[0] || got[1] != want[1] || got[3] != want[3] {
			t.Fatalf("scaling row %d grid mismatch: (shards=%s, objects=%s, msgs=%s) vs baseline (%s, %s, %s)",
				i, got[0], got[1], got[3], want[0], want[1], want[3])
		}
		// Column 5 is msg/s (higher is better), column 6 is p99.9 in ms
		// (lower is better).
		if g, w := cell(got, 5), cell(want, 5); g < w*0.90 {
			t.Errorf("shards=%s objects=%s: aggregate throughput regressed to %.1f msg/s, baseline %.1f (-%.1f%%)",
				got[0], got[1], g, w, 100*(1-g/w))
		}
		if g, w := cell(got, 6), cell(want, 6); g > w*1.10 {
			t.Errorf("shards=%s objects=%s: p99.9 regressed to %.2fms, baseline %.2fms (+%.1f%%)",
				got[0], got[1], g, w, 100*(g/w-1))
		}
	}

	iso, baseIso := fresh[1], base.Tables[1]
	if len(iso.Rows) != len(baseIso.Rows) {
		t.Fatalf("isolation rows changed: %d vs %d in baseline — regenerate the baseline",
			len(iso.Rows), len(baseIso.Rows))
	}
	for i, got := range iso.Rows {
		want := baseIso.Rows[i]
		// Column 4 is cold p99 in ms, column 5 the degradation factor; both
		// lower is better.
		if g, w := cell(got, 4), cell(want, 4); g > w*1.10 {
			t.Errorf("%s: cold p99 regressed to %.2fms, baseline %.2fms (+%.1f%%)",
				got[0], g, w, 100*(g/w-1))
		}
		if g, w := cell(got, 5), cell(want, 5); g > w*1.10 {
			t.Errorf("%s: isolation degraded to %.1fx, baseline %.1fx", got[0], g, w)
		}
	}
}
