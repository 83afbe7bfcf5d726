package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"selfstabsnap/internal/history"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/types"
)

const (
	// setupRounds: set-up is timed this many times and the median kept.
	setupRounds = 15
	// lossy-recovery injects a fault after every faultEvery±faultJitter of
	// client time, drawn from the seed.
	faultEvery  = 400 * time.Millisecond
	faultJitter = 100 * time.Millisecond
	// minFaults is how many fault episodes every run times: after the
	// window, more run on the idle cluster until there are this many, so
	// every workload reports recovery time from the same number of faults.
	minFaults = 50
	// recoveryTimeout fails the run when a fault is not recovered in time.
	recoveryTimeout = 5 * time.Second
	// stuckAfter aborts the process when a segment overruns its deadline
	// by this much: an operation that never returns.
	stuckAfter = 60 * time.Second
)

// result is everything one measured run produced.
type result struct {
	setupS           []float64
	writeUS, snapUS  *reservoir // latency samples, µs
	attempted, fails int64
	active           time.Duration
	cpu              time.Duration
	ctxSw            int64
	syscr, syscw     int64
	alloc            uint64
	gcCPU, totalCPU  float64
	traffic          metrics.Snapshot
	loops            int64
	acks             node.AckStats
	recoveryMS       []float64
	recoveryCycles   []float64
	recoveryMsgs     []float64
	peakHeapMB       float64
	checkS           float64
	checkedOps       int
	epochs           int
	gateErr          error
}

func (r *result) ok() int64 { return r.attempted - r.fails }

// runState is the measured cluster plus what the run keeps about it.
type runState struct {
	sp      *spec
	c       *cluster
	tr      *tracer
	clients [2]*client
	rng     *rand.Rand // baseline values and fault draws
	epoch   *epochHist
	wcount  []int64
	heap    *heapPeak
	res     *result
}

// newEpoch writes one value at every node, in order, and opens a checked
// epoch whose write indices start at those writes.
func (st *runState) newEpoch() error {
	n := st.sp.n
	e := &epochHist{offsets: make([]int64, n)}
	st.wcount = make([]int64, n)
	for k := 0; k < n; k++ {
		v := make(types.Value, st.sp.valSize)
		st.rng.Read(v)
		r := opRec{node: k, kind: history.KindWrite, index: 1, val: v, invoke: time.Now()}
		r.err = st.c.nodes[k].Write(v)
		r.ret = time.Now()
		if r.err != nil {
			return fmt.Errorf("baseline write at node %d: %w", k, r.err)
		}
		st.wcount[k] = 1
		e.writes = append(e.writes, writeOp(r))
	}
	for k := 0; k < n; k++ {
		own := st.c.state[k]().reg[k]
		if !own.Val.Equal(e.writes[k].WriteValue) {
			return fmt.Errorf("node %d lost its baseline write", k)
		}
		e.offsets[k] = own.TS - 1
	}
	st.epoch = e
	st.res.epochs++
	return nil
}

// fault corrupts every node's variables and times the recovery.
func (st *runState) fault() error {
	before := st.c.traffic().Messages
	t0 := time.Now()
	for _, nd := range st.c.nodes {
		nd.Corrupt(st.rng)
	}
	cycles, err := st.c.cyclesToInvariant(recoveryTimeout)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	st.res.recoveryMS = append(st.res.recoveryMS, float64(d)/float64(time.Millisecond))
	st.res.recoveryCycles = append(st.res.recoveryCycles, float64(cycles))
	st.res.recoveryMsgs = append(st.res.recoveryMsgs, float64(st.c.traffic().Messages-before))
	return nil
}

// segment runs one segment, folds its meters into the result, and then —
// outside the measured time — checks it and collects the garbage the check
// left, so the oracle's cost never lands in a later segment.
func (st *runState) segment(deadline time.Time) error {
	res := st.res
	watchdog := time.AfterFunc(time.Until(deadline)+stuckAfter, func() {
		panic(fmt.Sprintf("%s: an operation did not return within %v of its segment's end", st.sp.name, stuckAfter))
	})
	defer watchdog.Stop()

	t0, a0, l0, k0 := sampleProc(), st.c.traffic(), st.c.loops(), st.c.ackStats()
	st.tr.setOn(true)
	st.heap.active.Store(true)
	ops := runSegment(st.c, st.clients, deadline, st.wcount, st.tr)
	st.heap.active.Store(false)
	st.tr.setOn(false)
	t1, a1, l1, k1 := sampleProc(), st.c.traffic(), st.c.loops(), st.c.ackStats()

	res.active += t1.at.Sub(t0.at)
	res.cpu += t1.cpu - t0.cpu
	res.ctxSw += t1.ctxSw - t0.ctxSw
	res.syscr += t1.syscr - t0.syscr
	res.syscw += t1.syscw - t0.syscw
	res.alloc += t1.alloc - t0.alloc
	res.gcCPU += t1.gcCPU - t0.gcCPU
	res.totalCPU += t1.totalCPU - t0.totalCPU
	addTraffic(&res.traffic, a1.Sub(a0))
	res.loops += l1 - l0
	res.acks.Full += k1.Full - k0.Full
	res.acks.Delta += k1.Delta - k0.Delta
	res.acks.Suppressed += k1.Suppressed - k0.Suppressed

	for _, cl := range ops {
		for _, r := range cl {
			res.attempted++
			if r.err != nil {
				res.fails++
				continue
			}
			us := float64(r.ret.Sub(r.invoke)) / float64(time.Microsecond)
			if r.kind == history.KindWrite {
				res.writeUS.add(us)
			} else {
				res.snapUS.add(us)
			}
		}
	}

	c0 := time.Now()
	n, err := st.epoch.checkSegment(ops, st.wcount)
	res.checkedOps += n
	res.checkS += time.Since(c0).Seconds()
	runtime.GC()
	if err != nil {
		return fmt.Errorf("correctness gate, epoch %d: %w", res.epochs, err)
	}
	return nil
}

// measure runs one workload: set-up (timed setupRounds times), then
// --seconds of closed-loop client time in checked segments, with fault
// episodes between segments on lossy-recovery, then fault episodes on the
// idle cluster up to minFaults. tr is nil for the untraced run. A
// correctness violation is returned in result.gateErr; any other error
// aborts the run.
func measure(sp *spec, seed int64, window time.Duration, tr *tracer) (*result, error) {
	rng := rand.New(rand.NewSource(seed))
	owners := sp.owners(rng.Perm(sp.n))
	st := &runState{sp: sp, tr: tr, res: &result{
		writeUS: newReservoir(rng.Int63()), snapUS: newReservoir(rng.Int63())}}
	for i := range st.clients {
		st.clients[i] = &client{
			nodes: owners[i], pattern: sp.pattern[i], valSize: sp.valSize,
			rng: rand.New(rand.NewSource(rng.Int63())),
		}
	}
	st.rng = rand.New(rand.NewSource(rng.Int63()))
	faultRng := rand.New(rand.NewSource(rng.Int63()))
	nextFault := func() time.Duration {
		return faultEvery - faultJitter + time.Duration(faultRng.Int63n(int64(2*faultJitter)))
	}

	for round := 0; round < setupRounds; round++ {
		if st.c != nil {
			st.c.close()
		}
		st.res.epochs = 0
		t0 := time.Now()
		c, err := build(sp, seed, tr)
		if err != nil {
			return nil, err
		}
		st.c = c
		if err := st.newEpoch(); err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		st.res.setupS = append(st.res.setupS, time.Since(t0).Seconds())
	}
	defer func() { st.c.close() }()

	st.heap = startHeapPeak()
	defer st.heap.finish()
	untilFault := nextFault()
	for st.res.active < window {
		d := min(sp.segLen, window-st.res.active)
		before := st.res.active
		if err := st.segment(time.Now().Add(d)); err != nil {
			st.res.gateErr = err
			return st.res, nil
		}
		untilFault -= st.res.active - before
		if sp.faultsInWindow && untilFault <= 0 && st.res.active < window {
			if err := st.fault(); err != nil {
				return st.res, err
			}
			if err := st.newEpoch(); err != nil {
				return st.res, fmt.Errorf("after recovery: %w", err)
			}
			untilFault = nextFault()
		}
	}
	st.res.peakHeapMB = st.heap.peakMB()
	for len(st.res.recoveryMS) < minFaults {
		if err := st.fault(); err != nil {
			return st.res, err
		}
	}
	return st.res, nil
}
