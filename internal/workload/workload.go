// Package workload provides the closed-loop load generator the capacity
// benchmarks share: one worker per node issuing back-to-back operations
// on the cluster's object 0 for a fixed duration, on the real clock.
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/core"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/types"
)

// valueSize is the written payload size ν in bytes.
const valueSize = 16

// Mix selects the operation blend.
type Mix struct {
	// SnapshotEvery issues one snapshot per this many writes per worker
	// (0 = writes only).
	SnapshotEvery int
}

// ClosedLoopConfig drives workers that issue operations back to back.
type ClosedLoopConfig struct {
	// Duration of the run.
	Duration time.Duration
	// Mix blends snapshots into the write stream.
	Mix Mix
	// Seed drives the written payloads deterministically.
	Seed int64
}

// Report summarises a load run.
type Report struct {
	Writes     int64
	Snapshots  int64
	Errors     int64
	Elapsed    time.Duration
	WriteLat   metrics.LatencyStats
	SnapLat    metrics.LatencyStats
	Throughput float64 // successful ops per second
}

// String renders the report on one line.
func (r Report) String() string {
	return fmt.Sprintf("ops=%d (w=%d s=%d err=%d) in %v → %.0f op/s; write %v; snap %v",
		r.Writes+r.Snapshots, r.Writes, r.Snapshots, r.Errors,
		r.Elapsed.Round(time.Millisecond), r.Throughput, r.WriteLat, r.SnapLat)
}

// RunClosedLoop drives the cluster with cfg and reports.
func RunClosedLoop(c *core.Cluster, cfg ClosedLoopConfig) Report {
	if cfg.Duration <= 0 {
		cfg.Duration = 200 * time.Millisecond
	}

	var writes, snaps, errs atomic.Int64
	var writeLat, snapLat metrics.LatencyRecorder
	var stop atomic.Bool
	var wg sync.WaitGroup

	for id := 0; id < c.N(); id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id*131)))
			payload := make(types.Value, valueSize)
			for j := 0; !stop.Load(); j++ {
				rng.Read(payload)
				start := time.Now()
				if err := c.Write(id, payload); err != nil {
					errs.Add(1)
				} else {
					writes.Add(1)
					writeLat.Record(time.Since(start))
				}
				if cfg.Mix.SnapshotEvery > 0 && j%cfg.Mix.SnapshotEvery == cfg.Mix.SnapshotEvery-1 {
					start = time.Now()
					if _, err := c.Snapshot(id); err != nil {
						errs.Add(1)
					} else {
						snaps.Add(1)
						snapLat.Record(time.Since(start))
					}
				}
			}
		}(id)
	}

	start := time.Now()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	r := Report{
		Writes: writes.Load(), Snapshots: snaps.Load(), Errors: errs.Load(),
		Elapsed:  elapsed,
		WriteLat: writeLat.Stats(), SnapLat: snapLat.Stats(),
	}
	if s := elapsed.Seconds(); s > 0 {
		r.Throughput = float64(r.Writes+r.Snapshots) / s
	}
	return r
}
