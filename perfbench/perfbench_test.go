package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"selfstabsnap/internal/history"
	"selfstabsnap/internal/types"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// runShort runs one workload briefly and returns its result line.
func runShort(t *testing.T, workload, trace string) report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", trace, "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v", workload, trace, err)
	}
	if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
		t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d", workload, trace, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

// TestEveryMetricEmitted runs every workload of the benchmark untraced and
// traced, and checks that exactly the metrics BENCHMARK.json names come
// out, each with its unit. lossy-recovery runs too, though BENCHMARK.json
// leaves it out (see README.md).
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		if lookup(w.Name) == nil {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
	for _, w := range workloads {
		for trace, want := range map[string][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{"0": bf.EndToEnd, "1": bf.PerLayer} {
			rep := runShort(t, w.name, trace)
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s not emitted", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
		}
	}
}

// TestGateRejectsFabricatedSnapshot records a real history over a few
// segments and checks it, then appends, in a later segment, a copy of a
// real snapshot with one entry made wrong: a stale entry that misses a
// write returned earlier, or a value no write produced. The gate must
// reject both, after accepting the unaltered history.
func TestGateRejectsFabricatedSnapshot(t *testing.T) {
	sp := lookup("lossy-recovery")
	for _, tc := range []struct {
		name   string
		mutate func(e *types.TSValue)
	}{
		{"stale entry", func(e *types.TSValue) { e.TS-- }},
		{"unwritten value", func(e *types.TSValue) { e.Val = types.Value("never written") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := build(sp, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			st := &runState{sp: sp, c: c, res: &result{}, rng: rand.New(rand.NewSource(1))}
			owners := sp.owners([]int{0, 1, 2, 3, 4, 5, 6})
			for i := range st.clients {
				st.clients[i] = &client{nodes: owners[i], pattern: sp.pattern[i], valSize: sp.valSize,
					rng: rand.New(rand.NewSource(int64(i + 2)))}
			}
			if err := st.newEpoch(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				seg := runSegment(c, st.clients, time.Now().Add(20*time.Millisecond), st.wcount, nil)
				if _, err := st.epoch.checkSegment(seg, st.wcount); err != nil {
					t.Fatalf("recorded segment %d rejected: %v", i, err)
				}
			}
			good := opRec{node: 0, kind: history.KindSnapshot, invoke: time.Now()}
			good.snap, good.err = c.nodes[0].Snapshot()
			good.ret = time.Now()
			if good.err != nil {
				t.Fatal(good.err)
			}
			if _, err := st.epoch.checkSegment([2][]opRec{{good}}, st.wcount); err != nil {
				t.Fatalf("good snapshot rejected: %v", err)
			}

			fake := good
			fake.snap = good.snap.Clone()
			tc.mutate(&fake.snap[owners[0][0]])
			fake.invoke = time.Now()
			fake.ret = fake.invoke.Add(time.Microsecond)
			_, err = st.epoch.checkSegment([2][]opRec{{fake}}, st.wcount)
			var v *history.Violation
			if !errors.As(err, &v) {
				t.Fatalf("fabricated snapshot %v accepted (err=%v)", fake.snap, err)
			}
			t.Logf("rejected: %v", v)
		})
	}
}
