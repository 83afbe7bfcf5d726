// Package netsim provides the asynchronous, failure-prone message-passing
// substrate of the paper's system model (§2): n nodes, a bidirectional
// bounded-capacity channel between every pair, no bound on communication
// delay, and an adversary that may lose, duplicate, and reorder packets.
//
// The simulator is an in-memory Transport implementation. Each message send
// is metered (count and encoded size in bytes) so experiments can verify the
// paper's communication-complexity claims; an optional per-network trace
// hook feeds the space-time diagrams that reproduce the paper's figures.
// A companion real-TCP implementation of the same Transport interface lives
// in package tcpnet.
package netsim

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/mailbox"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// Transport is the interface node runtimes communicate through. Both the
// in-memory simulator (Network) and the TCP transport implement it.
//
// Payload sharing contract: Send and SendMany take copy-on-write
// snapshots of m (a shallow envelope copy, or a serialization) — they do
// NOT deep-copy payload slices. After a send returns, the caller may
// replace m's fields (scalars and whole slice headers) but must never
// mutate the *contents* of slices the message carried (Reg entries and
// their Val bytes, Tasks, Saves, Maxima): those may now be aliased by
// in-flight envelopes and delivered messages. Receivers must treat
// arriving messages as immutable. Both halves of the contract are enforced
// by internal/transporttest under the race detector, and payload-byte
// immutability additionally by the `mutcheck` build tag.
type Transport interface {
	// Send transmits m from node `from` to node `to`, taking a
	// copy-on-write snapshot (see the payload sharing contract above).
	Send(from, to int, m *wire.Message)
	ManySender
	// Recv blocks until a message addressed to node id arrives; ok is false
	// once the transport is closed.
	Recv(id int) (m *wire.Message, ok bool)
	// N returns the cluster size.
	N() int
	// Counters exposes the traffic meters.
	Counters() *metrics.Counters
	// CloseEndpoint unblocks node id's receiver permanently; its Recv
	// returns ok=false once drained. Used by node runtimes on shutdown.
	CloseEndpoint(id int)
	// Close tears the transport down and unblocks all receivers.
	Close()
}

// ManySender is the broadcast fan-out half of the Transport contract:
// SendMany(from, to, m) must be observationally equivalent to calling
// Send(from, k, m) for each k in to — same deliveries, same metering (one
// RecordSend per (from, to) pair), same adversary treatment per recipient —
// but may share one payload copy (or one encoding) across all recipients.
// The sharing is safe because receivers treat arriving messages as
// immutable, a contract internal/transporttest enforces under the race
// detector. A wrapping transport that embeds Transport must override
// SendMany whenever it overrides Send, or the promoted inner SendMany
// bypasses the wrapper.
type ManySender interface {
	SendMany(from int, to []int, m *wire.Message)
}

// Adversary configures the packet-level misbehaviour of every link.
// The zero value is a perfect network with instantaneous delivery: no
// drops, no duplicates, and both delay bounds zero.
type Adversary struct {
	// DropProb is the probability a packet is silently lost.
	DropProb float64
	// DupProb is the probability a packet is delivered twice.
	DupProb float64
	// MinDelay and MaxDelay bound the uniformly random delivery delay.
	// New normalizes a misordered pair (MaxDelay < MinDelay) by swapping
	// the bounds, and clamps negative values to zero; MinDelay == MaxDelay
	// means every packet is delayed by exactly that duration.
	MinDelay time.Duration
	MaxDelay time.Duration
}

// normalized returns a copy with the delay pair ordered and non-negative,
// so a misconfigured MaxDelay < MinDelay cannot silently disable the delay
// adversary (delay() would otherwise always return MinDelay).
func (a Adversary) normalized() Adversary {
	if a.MinDelay < 0 {
		a.MinDelay = 0
	}
	if a.MaxDelay < 0 {
		a.MaxDelay = 0
	}
	if a.MaxDelay < a.MinDelay {
		a.MinDelay, a.MaxDelay = a.MaxDelay, a.MinDelay
	}
	return a
}

// delay draws a delivery delay; rng must be guarded by the caller.
func (a Adversary) delay(rng *rand.Rand) time.Duration {
	if a.MaxDelay <= a.MinDelay {
		return a.MinDelay
	}
	return a.MinDelay + time.Duration(rng.Int63n(int64(a.MaxDelay-a.MinDelay)))
}

// LinkProfile is the adversary of one directed link: the usual
// drop/dup/delay misbehaviour plus an optional bandwidth bound that adds a
// size-proportional serialization delay (size·second/BandwidthBps) to every
// copy. The zero value is a perfect link.
type LinkProfile struct {
	Adversary
	// BandwidthBps models link throughput; 0 means infinite (no
	// serialization delay). Negative values are clamped to 0.
	BandwidthBps int64
}

// normalized orders the delay pair and clamps the bandwidth, mirroring
// Adversary.normalized.
func (p LinkProfile) normalized() LinkProfile {
	p.Adversary = p.Adversary.normalized()
	if p.BandwidthBps < 0 {
		p.BandwidthBps = 0
	}
	return p
}

// active reports whether drawing this profile needs randomness.
func (p LinkProfile) active() bool {
	return p.DropProb > 0 || p.DupProb > 0 || p.MaxDelay > p.MinDelay
}

// LinkMatrix assigns a profile to every directed link: entry [from][to]
// governs messages from node `from` to node `to` (self-links included — a
// node's broadcast to itself crosses [i][i]). Links the matrix does not
// cover — a nil matrix, short rows, or out-of-range ids — fall back to the
// network's global Adversary, so a partial matrix overlays special links on
// an otherwise uniform network.
type LinkMatrix [][]LinkProfile

// NewLinkMatrix returns an n×n matrix of perfect links.
func NewLinkMatrix(n int) LinkMatrix {
	m := make(LinkMatrix, n)
	for i := range m {
		m[i] = make([]LinkProfile, n)
	}
	return m
}

// At returns the profile of the directed link from→to; ok is false when the
// matrix does not cover it (the caller should fall back to the global
// Adversary).
func (m LinkMatrix) At(from, to int) (LinkProfile, bool) {
	if from >= 0 && from < len(m) && to >= 0 && to < len(m[from]) {
		return m[from][to], true
	}
	return LinkProfile{}, false
}

// normalized returns a deep copy with every profile normalized.
func (m LinkMatrix) normalized() LinkMatrix {
	if m == nil {
		return nil
	}
	c := make(LinkMatrix, len(m))
	for i, row := range m {
		c[i] = make([]LinkProfile, len(row))
		for j, p := range row {
			c[i][j] = p.normalized()
		}
	}
	return c
}

// topology is the copy-on-write hostile-topology state of a network:
// per-link profiles and per-node delay-inflation factors. A nil topology
// pointer means the legacy uniform-adversary fast path — configs that never
// set Links or a slowdown take exactly the pre-LinkMatrix code path, so
// their seeded executions (and chaos digests) are bit-for-bit unchanged.
type topology struct {
	links LinkMatrix // may be nil: per-node slowdowns over a uniform net
	slow  []float64  // per-node factor ≥ 1; nil means all 1
}

// Config parameterises a simulated network.
type Config struct {
	N         int       // number of nodes (ids 0..N-1)
	Seed      int64     // seed for all adversarial randomness
	InboxCap  int       // bounded channel capacity per node (default 4096)
	Adversary Adversary // link misbehaviour (fallback when Links doesn't cover a link)
	// Links, when non-nil, assigns per-directed-link adversary profiles;
	// links it does not cover use the global Adversary. Profiles are
	// normalized at construction exactly like the global Adversary.
	Links LinkMatrix
	Trace TraceHook // optional send/deliver observer (may be nil)

	// Clock drives delivery deadlines, trace timestamps and the delivery
	// goroutine's blocking. nil means the real clock; a *simclock.Virtual
	// makes message latency part of the deterministic simulation (delays
	// resolve in virtual time, and the delivery loop runs as a scheduler
	// task).
	Clock simclock.Clock
}

// TraceHook observes message events. Implementations must be fast and
// concurrency-safe; package trace provides one.
type TraceHook interface {
	OnSend(from, to int, m *wire.Message, at time.Time)
	OnDeliver(from, to int, m *wire.Message, at time.Time)
}

// Network is the in-memory simulated transport.
type Network struct {
	cfg      Config
	clk      simclock.Clock
	inboxes  []*mailbox.Queue[*wire.Message]
	counters metrics.Counters

	mu      sync.Mutex
	blocked map[[2]int]bool // directed partition cuts
	seq     uint64
	closed  bool

	// The adversary's RNG has its own lock so random draws never extend the
	// global critical section: n.mu is held only for the blocked/seq/closed
	// check, and concurrent senders contend on rngMu alone (not at all when
	// the adversary is inactive).
	rngMu sync.Mutex
	rng   *rand.Rand

	// Hostile topology (per-link profiles, per-node slowdowns), published
	// copy-on-write so the send hot path reads it with one atomic load.
	// nil = the legacy uniform-adversary path, taken unchanged.
	topoMu sync.Mutex // serializes topology updates
	topo   atomic.Pointer[topology]

	// Delayed-delivery scheduler: one goroutine per network drains a
	// min-heap of pending packets (see scheduler.go).
	pendMu    sync.Mutex
	pendHeap  pendingHeap
	pendOrder uint64
	wake      simclock.Signal
	done      simclock.Event
	waitIdle  []simclock.Waitable // {done, wake}, hoisted for the idle wait
	loopWg    *simclock.Group
}

// New creates a simulated network for cfg.N nodes. The adversary's delay
// bounds are normalized (swapped if misordered, clamped non-negative).
func New(cfg Config) *Network {
	if cfg.InboxCap <= 0 {
		cfg.InboxCap = 4096
	}
	cfg.Adversary = cfg.Adversary.normalized()
	clk := simclock.Or(cfg.Clock)
	n := &Network{
		cfg:     cfg,
		clk:     clk,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		blocked: make(map[[2]int]bool),
		wake:    clk.NewSignal(),
		done:    clk.NewEvent(),
		loopWg:  clk.NewGroup(),
	}
	n.waitIdle = []simclock.Waitable{n.done, n.wake}
	if cfg.Links != nil {
		n.topo.Store(&topology{links: cfg.Links.normalized()})
	}
	n.inboxes = make([]*mailbox.Queue[*wire.Message], cfg.N)
	for i := range n.inboxes {
		n.inboxes[i] = mailbox.NewClocked[*wire.Message](clk, cfg.InboxCap)
	}
	n.loopWg.Add(1)
	clk.Go("netsim-delivery", n.deliveryLoop)
	return n
}

// N returns the cluster size.
func (n *Network) N() int { return n.cfg.N }

// Counters exposes the traffic meters.
func (n *Network) Counters() *metrics.Counters { return &n.counters }

// admit checks closed/blocked state and allocates a transport sequence
// number for one (from, to) transmission. It holds n.mu only for that — no
// RNG draws, no cloning, no metering happens under the global lock.
func (n *Network) admit(from, to int) (seq uint64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.blocked[[2]int{from, to}] {
		return 0, false
	}
	n.seq++
	return n.seq, true
}

// adversaryDraw samples one transmission's fate: how many copies arrive
// (0 = dropped, 2 = duplicated) and each copy's delivery delay. When the
// adversary is inactive the RNG is not consulted at all, so concurrent
// senders on a perfect network synchronize only on admit's short critical
// section. delays has room for the duplicated copy; only delays[:copies]
// is meaningful.
func (n *Network) adversaryDraw() (copies int, delays [2]time.Duration) {
	a := n.cfg.Adversary
	if a.DropProb == 0 && a.DupProb == 0 && a.MaxDelay <= a.MinDelay {
		return 1, [2]time.Duration{a.MinDelay, a.MinDelay}
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	copies = 1
	if a.DropProb > 0 && n.rng.Float64() < a.DropProb {
		copies = 0
	} else if a.DupProb > 0 && n.rng.Float64() < a.DupProb {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		delays[i] = a.delay(n.rng)
	}
	return copies, delays
}

// drawFor samples one transmission's fate on the directed link from→to.
// With no topology installed it is exactly adversaryDraw; otherwise the
// link's own profile (or the global Adversary where the matrix doesn't
// cover the link) governs the draw, a bandwidth bound adds a
// size-proportional serialization delay, and the endpoints' slowdown
// factors inflate every copy's delay multiplicatively.
func (n *Network) drawFor(from, to, size int) (copies int, delays [2]time.Duration) {
	t := n.topo.Load()
	if t == nil {
		return n.adversaryDraw()
	}
	p, ok := t.links.At(from, to)
	if !ok {
		p = LinkProfile{Adversary: n.cfg.Adversary}
	}
	copies = 1
	if p.active() {
		n.rngMu.Lock()
		if p.DropProb > 0 && n.rng.Float64() < p.DropProb {
			copies = 0
		} else if p.DupProb > 0 && n.rng.Float64() < p.DupProb {
			copies = 2
		}
		for i := 0; i < copies; i++ {
			delays[i] = p.Adversary.delay(n.rng)
		}
		n.rngMu.Unlock()
	} else {
		delays[0], delays[1] = p.MinDelay, p.MinDelay
	}
	var ser time.Duration
	if p.BandwidthBps > 0 && size > 0 {
		ser = time.Duration(int64(size) * int64(time.Second) / p.BandwidthBps)
	}
	factor := 1.0
	if t.slow != nil {
		if from >= 0 && from < len(t.slow) && t.slow[from] > 1 {
			factor *= t.slow[from]
		}
		if to >= 0 && to < len(t.slow) && t.slow[to] > 1 {
			factor *= t.slow[to]
		}
	}
	if ser > 0 || factor != 1 {
		for i := 0; i < copies; i++ {
			d := delays[i] + ser
			if factor != 1 {
				d = time.Duration(float64(d) * factor)
			}
			delays[i] = d
		}
	}
	return copies, delays
}

// SetNodeSlowdown inflates every delay on node id's links (both directions)
// by factor — the slow-but-alive nemesis: the node keeps taking steps and
// is never counted as crashed, but all its traffic crawls. factor ≤ 1
// restores full speed; when the whole topology returns to baseline the
// legacy fast path is reinstated.
func (n *Network) SetNodeSlowdown(id int, factor float64) {
	if id < 0 || id >= n.cfg.N {
		return
	}
	if factor < 1 {
		factor = 1
	}
	n.topoMu.Lock()
	defer n.topoMu.Unlock()
	cur := n.topo.Load()
	next := &topology{}
	if cur != nil {
		next.links = cur.links
		if cur.slow != nil {
			next.slow = append([]float64(nil), cur.slow...)
		}
	}
	if next.slow == nil {
		next.slow = make([]float64, n.cfg.N)
		for i := range next.slow {
			next.slow[i] = 1
		}
	}
	next.slow[id] = factor
	allOne := true
	for _, f := range next.slow {
		if f != 1 {
			allOne = false
			break
		}
	}
	if allOne {
		next.slow = nil
		if next.links == nil {
			n.topo.Store(nil)
			return
		}
	}
	n.topo.Store(next)
}

// dispatch routes one envelope (and its adversarial duplicate, if any) to
// node to's inbox, immediately or through the delay scheduler. Duplicates
// share the payload copy-on-write: receivers never mutate arrivals.
func (n *Network) dispatch(from, to int, env *wire.Message, copies int, delays [2]time.Duration) {
	for i := 0; i < copies; i++ {
		dup := env
		if i > 0 {
			dup = env.ShallowClone()
		}
		if delays[i] <= 0 {
			n.deliver(from, to, dup)
			continue
		}
		n.schedule(n.clk.Now().Add(delays[i]), from, to, dup)
	}
}

// Send transmits a copy-on-write snapshot of m, subject to the adversary:
// the envelope may be dropped, duplicated, and delayed (delays reorder
// messages relative to each other). The snapshot is a shallow clone — the
// payload slices are shared with the caller's message under the Transport
// contract (immutable after send), so a unicast send allocates one envelope
// and zero payload bytes, exactly the scheme SendMany fans out with.
// Sending to self is delivered like any other message, as in the paper's
// model where a node's broadcast includes itself.
func (n *Network) Send(from, to int, m *wire.Message) {
	if to < 0 || to >= n.cfg.N {
		return
	}
	seq, ok := n.admit(from, to)
	if !ok {
		return
	}
	size := m.Size()
	copies, delays := n.drawFor(from, to, size)
	switch copies {
	case 0:
		n.counters.RecordDrop()
	case 2:
		n.counters.RecordDup()
	}

	// A send is metered even when the adversary loses it: the paper counts
	// transmissions, and losses surface separately as drops.
	if copies == 0 && n.cfg.Trace == nil {
		n.counters.RecordSend(m.Type, size)
		return
	}
	c := m.ShallowClone()
	c.From, c.To, c.Seq = int32(from), int32(to), seq
	n.counters.RecordSend(c.Type, size)
	if n.cfg.Trace != nil {
		n.cfg.Trace.OnSend(from, to, c, n.clk.Now())
	}
	n.dispatch(from, to, c, copies, delays)
}

// SendMany transmits m from node `from` to every node in `to`, equivalently
// to a Send loop but with zero payload copies: each recipient gets its own
// envelope (From/To/Seq) via ShallowClone while the payload slices are
// shared — with each other AND with the caller's message, under the
// Transport contract (payloads immutable after send). Metering is identical
// to the Send loop — one send of m.Size() bytes recorded per recipient, and
// each recipient is admitted, adversary-sampled, and traced independently.
func (n *Network) SendMany(from int, to []int, m *wire.Message) {
	if len(to) == 0 {
		return
	}
	master := m.ShallowClone()
	size := master.Size()
	sent := 0
	for _, k := range to {
		if k < 0 || k >= n.cfg.N {
			continue
		}
		seq, ok := n.admit(from, k)
		if !ok {
			continue
		}
		sent++
		copies, delays := n.drawFor(from, k, size)
		switch copies {
		case 0:
			n.counters.RecordDrop()
		case 2:
			n.counters.RecordDup()
		}
		if copies == 0 && n.cfg.Trace == nil {
			continue
		}
		env := master.ShallowClone()
		env.From, env.To, env.Seq = int32(from), int32(k), seq
		if n.cfg.Trace != nil {
			n.cfg.Trace.OnSend(from, k, env, n.clk.Now())
		}
		n.dispatch(from, k, env, copies, delays)
	}
	if sent > 0 {
		n.counters.RecordSendMany(m.Type, sent, size)
	}
}

func (n *Network) deliver(from, to int, m *wire.Message) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return
	}
	if n.inboxes[to].Push(m) {
		// Bounded-capacity channel overflow: the oldest queued message was
		// lost. The paper's complexity claims rest on metering this.
		n.counters.RecordEviction()
	}
	if n.cfg.Trace != nil {
		n.cfg.Trace.OnDeliver(from, to, m, n.clk.Now())
	}
}

// Recv blocks until a message for node id arrives or the network is closed.
func (n *Network) Recv(id int) (*wire.Message, bool) {
	return n.inboxes[id].Pop()
}

// CloseEndpoint permanently closes node id's inbox.
func (n *Network) CloseEndpoint(id int) { n.inboxes[id].Close() }

// QueueLen reports the number of undelivered messages waiting for node id.
func (n *Network) QueueLen(id int) int { return n.inboxes[id].Len() }

// DrainInbox discards node id's queued messages, modelling the loss of
// channel content on a detectable restart.
func (n *Network) DrainInbox(id int) { n.inboxes[id].Drain() }

// SetCut blocks (or unblocks) the directed link from → to. Cutting both
// directions of every link between two node sets partitions the network.
func (n *Network) SetCut(from, to int, cut bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cut {
		n.blocked[[2]int{from, to}] = true
	} else {
		delete(n.blocked, [2]int{from, to})
	}
}

// Isolate cuts all links to and from node id (both directions).
func (n *Network) Isolate(id int, isolated bool) {
	for k := 0; k < n.cfg.N; k++ {
		if k == id {
			continue
		}
		n.SetCut(id, k, isolated)
		n.SetCut(k, id, isolated)
	}
}

// Close shuts the network down and unblocks all receivers. It returns
// promptly regardless of MaxDelay: delayed packets still pending are
// discarded, exactly as a closed network would have discarded them on
// arrival.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.done.Fire()
	n.loopWg.Wait()
	for _, q := range n.inboxes {
		q.Close()
	}
}

var _ Transport = (*Network)(nil)
