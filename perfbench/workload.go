package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"selfstabsnap/internal/deltasnap"
	"selfstabsnap/internal/history"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/nonblocking"
	"selfstabsnap/internal/tcpnet"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// spec describes one workload. Every workload is closed-loop with exactly
// two clients (the paper's one waiting client per node, two client
// goroutines in all); each client owns a disjoint set of nodes and issues
// its pattern round-robin over them with no think time.
type spec struct {
	name      string
	alg       string // "nonblocking" (Algorithm 1) or "deltasnap" (Algorithm 3)
	n         int
	delta     int64 // Algorithm 3's δ
	tcp       bool  // tcpnet loopback mesh instead of netsim
	valSize   int   // ν, bytes per written value
	adversary netsim.Adversary
	// owners splits a seeded node order between the two clients.
	owners func(order []int) [2][]int
	// pattern is each client's repeating operation cycle.
	pattern [2][]history.Kind
	// segLen is the client time between two barriers. Each segment is
	// checked on its own, and the check is quadratic in the segment's
	// snapshots, so faster workloads get shorter segments.
	segLen time.Duration
	// faultsInWindow makes the measured window alternate checked segments
	// with transient-fault episodes (corrupt every node, time recovery,
	// write a baseline, resume). Otherwise faults run after the window.
	faultsInWindow bool
}

const (
	opW = history.KindWrite
	opS = history.KindSnapshot
)

// workloads are the benchmark's workloads; BENCHMARK.json and README.md
// record why each was chosen.
var workloads = []*spec{
	{
		name: "tcp-mixed",
		alg:  "nonblocking", n: 5, tcp: true, valSize: 256,
		owners: func(o []int) [2][]int { return [2][]int{o[:3], o[3:]} },
		// Both clients: 3 writes to 1 snapshot.
		pattern: [2][]history.Kind{{opW, opW, opW, opS}, {opW, opW, opW, opS}},
		segLen:  100 * time.Millisecond,
	},
	{
		name: "delta-storm",
		alg:  "deltasnap", n: 16, delta: 4, valSize: 1024,
		// Client A writes on nodes 0-7, client B snapshots on nodes 8-15,
		// each in a seeded order.
		owners:  func(o []int) [2][]int { return [2][]int{inOrder(o, 0, 8), inOrder(o, 8, 16)} },
		pattern: [2][]history.Kind{{opW}, {opS}},
		segLen:  250 * time.Millisecond,
	},
	{
		name: "lossy-recovery",
		alg:  "nonblocking", n: 7, valSize: 64,
		// Zero delay: a sub-millisecond netsim timer fires only after the
		// platform's timer overshoot, which would otherwise set every latency.
		adversary:      netsim.Adversary{DropProb: 0.05, DupProb: 0.02},
		owners:         func(o []int) [2][]int { return [2][]int{o[:4], o[4:]} },
		pattern:        [2][]history.Kind{{opW, opS, opS, opS}, {opW, opS, opS, opS}},
		segLen:         10 * time.Millisecond,
		faultsInWindow: true,
	},
}

// inOrder returns the ids in [lo, hi) in the order they appear in o.
func inOrder(o []int, lo, hi int) []int {
	var out []int
	for _, id := range o {
		if id >= lo && id < hi {
			out = append(out, id)
		}
	}
	return out
}

func lookup(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// snapNode is the client-facing surface both algorithms expose.
type snapNode interface {
	Write(types.Value) error
	Snapshot() (types.RegVector, error)
	Start()
	Close()
	Runtime() *node.Runtime
	Corrupt(*rand.Rand)
	LocalInvariantHolds() bool
	AckStats() node.AckStats
}

// nodeState is the part of a node's variables the Definition 1 invariants
// relate across nodes.
type nodeState struct {
	ts, sns int64
	reg     types.RegVector
	pndSNS  []int64 // nil for Algorithm 1
}

// cluster is one assembled system: transports, nodes and their meters.
type cluster struct {
	nodes    []snapNode
	state    []func() nodeState
	ctrs     []*metrics.Counters
	queueLen func(id int) int
	closeNet func()
}

// build assembles a cluster from the public constructors exactly as the
// repository's examples and commands do, with default node.Options. When
// tr is non-nil every node's transport is wrapped in the tracing shim.
func build(sp *spec, seed int64, tr *tracer) (*cluster, error) {
	c := &cluster{}
	trans := make([]netsim.Transport, sp.n)
	if sp.tcp {
		mesh, err := tcpnet.NewMesh(sp.n)
		if err != nil {
			return nil, fmt.Errorf("tcp mesh: %w", err)
		}
		for i, t := range mesh.Transports {
			trans[i] = t
			c.ctrs = append(c.ctrs, t.Counters())
		}
		c.queueLen = func(id int) int { return mesh.Transports[id].QueueLen() }
		c.closeNet = mesh.Close
	} else {
		cfg := netsim.Config{N: sp.n, Seed: seed, Adversary: sp.adversary}
		if tr != nil {
			cfg.Trace = tr
		}
		net := netsim.New(cfg)
		for i := range trans {
			trans[i] = net
		}
		c.ctrs = []*metrics.Counters{net.Counters()}
		c.queueLen = net.QueueLen
		c.closeNet = net.Close
	}
	for i := 0; i < sp.n; i++ {
		t := trans[i]
		if tr != nil {
			t = tr.wrap(t, c.queueLen)
		}
		switch sp.alg {
		case "nonblocking":
			nd := nonblocking.New(i, t, nonblocking.Config{SelfStabilizing: true})
			c.nodes = append(c.nodes, nd)
			c.state = append(c.state, func() nodeState {
				st := nd.StateSummary()
				return nodeState{ts: st.TS, reg: st.Reg}
			})
		case "deltasnap":
			nd := deltasnap.New(i, t, deltasnap.Config{Delta: sp.delta})
			c.nodes = append(c.nodes, nd)
			c.state = append(c.state, func() nodeState {
				st := nd.StateSummary()
				return nodeState{ts: st.TS, sns: st.SNS, reg: st.Reg, pndSNS: st.PndSNS}
			})
		default:
			return nil, fmt.Errorf("unknown algorithm %q", sp.alg)
		}
	}
	for _, nd := range c.nodes {
		nd.Start()
	}
	return c, nil
}

func (c *cluster) close() {
	for _, nd := range c.nodes {
		nd.Close()
	}
	c.closeNet()
}

// traffic sums the transport meters of every node.
func (c *cluster) traffic() metrics.Snapshot {
	var out metrics.Snapshot
	for _, ct := range c.ctrs {
		addTraffic(&out, ct.Snapshot())
	}
	return out
}

// addTraffic adds the meters the benchmark reports from s into acc.
func addTraffic(acc *metrics.Snapshot, s metrics.Snapshot) {
	if acc.PerType == nil {
		acc.PerType = map[wire.Type]metrics.TypeCount{}
	}
	for t, tc := range s.PerType {
		p := acc.PerType[t]
		acc.PerType[t] = metrics.TypeCount{Messages: p.Messages + tc.Messages, Bytes: p.Bytes + tc.Bytes}
	}
	acc.Messages += s.Messages
	acc.Bytes += s.Bytes
	acc.Drops += s.Drops
	acc.Dups += s.Dups
	acc.Evictions += s.Evictions
}

// loops returns the do-forever iterations completed by all nodes.
func (c *cluster) loops() int64 {
	var n int64
	for _, l := range c.loopCounts() {
		n += l
	}
	return n
}

func (c *cluster) ackStats() node.AckStats {
	var a node.AckStats
	for _, nd := range c.nodes {
		s := nd.AckStats()
		a.Full += s.Full
		a.Delta += s.Delta
		a.Suppressed += s.Suppressed
	}
	return a
}

// invariantsHold evaluates Definition 1 from the nodes' public state, as
// core.Cluster.InvariantsHold does: every node's local invariant, and
// across nodes ts_i ≥ reg_j[i].ts and sns_i ≥ pndTsk_j[i].sns.
func (c *cluster) invariantsHold() bool {
	views := make([]nodeState, len(c.nodes))
	for i, nd := range c.nodes {
		if !nd.LocalInvariantHolds() {
			return false
		}
		views[i] = c.state[i]()
	}
	for i, vi := range views {
		for _, vj := range views {
			if vj.reg[i].TS > vi.ts {
				return false
			}
			if vj.pndSNS != nil && vj.pndSNS[i] > vi.sns {
				return false
			}
		}
	}
	return true
}

func (c *cluster) loopCounts() []int64 {
	out := make([]int64, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.Runtime().LoopCount()
	}
	return out
}

// errRecoveryTimeout fails the run: a fault the system never recovered from.
var errRecoveryTimeout = errors.New("recovery did not complete before its timeout")

// recoveryPoll is how often recovery is polled; the measured time is
// rounded up to it (plus the platform's timer overshoot).
const recoveryPoll = 200 * time.Microsecond

// cyclesToInvariant waits until the invariants hold and still hold after
// every node completed one more do-forever iteration (so corrupted values
// in flight have landed), mirroring core.Cluster.CyclesToInvariant. It
// returns the largest number of iterations any node needed.
func (c *cluster) cyclesToInvariant(timeout time.Duration) (int64, error) {
	start := c.loopCounts()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if !c.invariantsHold() {
			time.Sleep(recoveryPoll)
			continue
		}
		mark := c.loopCounts()
		for !allAdvanced(c.loopCounts(), mark) {
			if time.Now().After(deadline) {
				return 0, errRecoveryTimeout
			}
			time.Sleep(recoveryPoll)
		}
		if !c.invariantsHold() {
			continue
		}
		var maxD int64
		for i, n := range c.loopCounts() {
			if d := n - start[i]; d > maxD {
				maxD = d
			}
		}
		return maxD, nil
	}
	return 0, errRecoveryTimeout
}

// allAdvanced reports whether every node completed an iteration since mark.
func allAdvanced(now, mark []int64) bool {
	for i := range now {
		if now[i] == mark[i] {
			return false
		}
	}
	return true
}

// opRec is one client operation as the client saw it.
type opRec struct {
	node        int
	kind        history.Kind
	invoke, ret time.Time
	index       int64 // write: the node's index within the current epoch
	val         types.Value
	snap        types.RegVector
	err         error
}

// client is one of the two closed-loop clients.
type client struct {
	nodes   []int
	pattern []history.Kind
	rng     *rand.Rand
	valSize int
	pos     int // next operation in the round-robin
}

// segment runs the client until deadline and returns its operations.
// wcount holds the per-node write counters of the current epoch; the
// client touches only the entries of the nodes it owns.
func (cl *client) segment(c *cluster, deadline time.Time, wcount []int64, tr *tracer) []opRec {
	var ops []opRec
	for time.Now().Before(deadline) {
		id := cl.nodes[cl.pos%len(cl.nodes)]
		rec := opRec{node: id, kind: cl.pattern[cl.pos%len(cl.pattern)]}
		cl.pos++
		if rec.kind == history.KindWrite {
			rec.val = make(types.Value, cl.valSize)
			cl.rng.Read(rec.val)
			wcount[id]++
			rec.index = wcount[id]
		}
		sp := tr.begin(id, rec.kind)
		rec.invoke = time.Now()
		if rec.kind == history.KindWrite {
			rec.err = c.nodes[id].Write(rec.val)
		} else {
			rec.snap, rec.err = c.nodes[id].Snapshot()
		}
		rec.ret = time.Now()
		tr.end(sp)
		ops = append(ops, rec)
	}
	return ops
}

// runSegment runs both clients concurrently until deadline and waits for
// them: every operation of the segment returns before the next segment (or
// a fault) begins, which is what lets the history be checked per segment.
func runSegment(c *cluster, clients [2]*client, deadline time.Time, wcount []int64, tr *tracer) [2][]opRec {
	var out [2][]opRec
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = clients[i].segment(c, deadline, wcount, tr)
		}(i)
	}
	wg.Wait()
	return out
}
