package workload

import (
	"strings"
	"testing"
	"time"

	"selfstabsnap/internal/core"
)

func testCluster(t *testing.T, alg core.Algorithm) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		N: 4, Algorithm: alg, Delta: 2, Seed: 55,
		LoopInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClosedLoopBasic(t *testing.T) {
	c := testCluster(t, core.NonBlockingSS)
	r := RunClosedLoop(c, ClosedLoopConfig{
		Duration: 150 * time.Millisecond,
		Mix:      Mix{SnapshotEvery: 5},
		Seed:     1,
	})
	t.Log(r)
	if r.Writes == 0 {
		t.Fatal("no writes completed")
	}
	if r.Snapshots == 0 {
		t.Fatal("no snapshots completed")
	}
	if r.Errors != 0 {
		t.Fatalf("%d errors on a healthy cluster", r.Errors)
	}
	if r.Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
	if r.WriteLat.Count == 0 || r.WriteLat.Mean <= 0 {
		t.Fatal("write latencies missing")
	}
	if !strings.Contains(r.String(), "op/s") {
		t.Error("report rendering broken")
	}
}

func TestClosedLoopDefaults(t *testing.T) {
	c := testCluster(t, core.NonBlockingDG)
	r := RunClosedLoop(c, ClosedLoopConfig{}) // all defaults
	if r.Writes == 0 {
		t.Fatal("defaults produced no work")
	}
	if r.Snapshots != 0 {
		t.Fatal("default mix must be writes-only")
	}
}
