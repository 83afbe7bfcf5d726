package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/history"
	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/wire"
)

// The traced run measures every layer from outside the program: each
// node's netsim.Transport is wrapped in a shim (the same seam the reset
// package's fenced transport uses), netsim's TraceHook stamps sends, and
// the client brackets every operation. Nothing inside the program changes.
//
// Attribution needs no program support: each node has at most one client
// operation in flight, so a request sent by node i, and an ack sent back
// to i, belong to i's in-flight operation. Everything else — ticks,
// gossip, a node serving while it has no operation of its own — is
// background.

// shim is one node's view of the transport with timing around every call.
type shim struct {
	inner    netsim.Transport
	many     netsim.ManySender
	tr       *tracer
	queueLen func(id int) int
}

func (tr *tracer) wrap(t netsim.Transport, queueLen func(int) int) *shim {
	many, _ := t.(netsim.ManySender)
	return &shim{inner: t, many: many, tr: tr, queueLen: queueLen}
}

func (s *shim) N() int                      { return s.inner.N() }
func (s *shim) Counters() *metrics.Counters { return s.inner.Counters() }
func (s *shim) CloseEndpoint(id int)        { s.inner.CloseEndpoint(id) }
func (s *shim) Close()                      { s.inner.Close() }
func (s *shim) Send(from, to int, m *wire.Message) {
	if !s.tr.on.Load() {
		s.inner.Send(from, to, m)
		return
	}
	t0 := s.tr.now()
	s.inner.Send(from, to, m)
	s.tr.onSend(from, to, 1, m, t0, s.tr.now())
}

// SendMany keeps the node runtime on its broadcast fast path: both
// transports implement netsim.ManySender, and a shim without it would turn
// every broadcast into a Send loop.
func (s *shim) SendMany(from int, to []int, m *wire.Message) {
	if !s.tr.on.Load() {
		s.many.SendMany(from, to, m)
		return
	}
	t0 := s.tr.now()
	s.many.SendMany(from, to, m)
	peers := 0
	for _, k := range to {
		if k != from {
			peers++
		}
	}
	s.tr.onSend(from, -1, peers, m, t0, s.tr.now())
	s.tr.countTypes(m.Type, len(to), from, -1)
}

// Recv measures the dispatcher's handler time as the gap between one Recv
// returning and the next being called: everything the runtime did with the
// message in between (HandleMessage and the quorum collector).
func (s *shim) Recv(id int) (*wire.Message, bool) {
	s.tr.recvEnter(id)
	m, ok := s.inner.Recv(id)
	if ok {
		s.tr.recvReturn(id, m, s.queueLen(id))
	}
	return m, ok
}

// opSpan is one client operation's span; its children are the sends and
// handler gaps attributed to it.
type opSpan struct {
	id         uint64
	node       int
	kind       history.Kind
	start, end int64

	mu        sync.Mutex
	closed    bool
	children  []child
	firstSend int64 // first request transmission, 0 if none yet
	lastAck   int64 // last ack returned by the caller's Recv, 0 if none
}

type child struct {
	name       string // "send" or "handle"
	node       int
	start, end int64
}

func (sp *opSpan) add(c child) {
	sp.mu.Lock()
	if !sp.closed {
		sp.children = append(sp.children, c)
	}
	sp.mu.Unlock()
}

// dispState belongs to one node's dispatcher goroutine: only it calls
// Recv for that node, so the fields need no lock.
type dispState struct {
	lastRet int64
	cur     *opSpan
}

// callState tracks one node's quorum calls, to tell a new call from a
// retransmission of the current one.
type callState struct {
	mu    sync.Mutex
	last  map[wire.Type]any
	calls [wire.TCnsDecide + 1]int64
	sends [wire.TCnsDecide + 1]int64
}

const (
	clsBackground = iota
	clsWrite
	clsSnapshot
)

// tracer holds every traced measurement. Spans live in memory and are
// written out when the run ends.
type tracer struct {
	base    time.Time
	on      atomic.Bool
	onSince atomic.Int64
	netsim  bool
	n       int

	inflight []atomic.Pointer[opSpan]
	disp     []dispState
	calls    []callState
	nextID   atomic.Uint64

	sendNS, handlerNS, depth, oneway hist
	invokeToSend, ackToReturn        hist
	busyNS                           atomic.Int64
	framesOut, framesIn              atomic.Int64

	// byClass counts transmissions per message type and the class of the
	// operation they were attributed to.
	byClass [wire.TCnsDecide + 1][3]atomic.Int64

	sentMu sync.Mutex
	sentAt map[uint64]int64 // sampled netsim envelopes: Seq → OnSend time

	sampleMu  sync.Mutex
	sendCount atomic.Int64
	samples   []*wire.Message // codec replay sample

	spanMu                                   sync.Mutex
	opNS, selfNS, sendChildNS, handleChildNS int64
	ops                                      int64
	kept                                     []*opSpan
}

const (
	onewayEvery = 8    // one-way delay is sampled on every 8th netsim envelope
	sampleEvery = 64   // every 64th send goes into the codec replay sample
	sampleCap   = 4096 // bound on the replay sample
	keepEvery   = 64   // every 64th operation's full span is written out,
	keepCap     = 1000 // up to this many
)

func newTracer(n int, onNetsim bool) *tracer {
	return &tracer{
		base:     time.Now(),
		netsim:   onNetsim,
		n:        n,
		inflight: make([]atomic.Pointer[opSpan], n),
		disp:     make([]dispState, n),
		calls:    newCallStates(n),
		sentAt:   make(map[uint64]int64),
	}
}

func newCallStates(n int) []callState {
	cs := make([]callState, n)
	for i := range cs {
		cs[i].last = make(map[wire.Type]any)
	}
	return cs
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// setOn starts or stops recording; only client segments are traced, so the
// per-layer figures cover the same time as the end-to-end ones.
func (tr *tracer) setOn(on bool) {
	if tr == nil {
		return
	}
	if on {
		tr.onSince.Store(tr.now())
	}
	tr.on.Store(on)
}

func isRequest(t wire.Type) bool {
	switch t {
	case wire.TWrite, wire.TSnapshot, wire.TSave, wire.TSnap, wire.TEnd:
		return true
	}
	return false
}

func isAck(t wire.Type) bool {
	switch t {
	case wire.TWriteAck, wire.TSnapshotAck, wire.TSaveAck:
		return true
	}
	return false
}

// owner returns the in-flight operation a message from→to belongs to.
func (tr *tracer) owner(t wire.Type, from, to int) *opSpan {
	switch {
	case isRequest(t) && from >= 0 && from < tr.n:
		return tr.inflight[from].Load()
	case isAck(t) && to >= 0 && to < tr.n:
		return tr.inflight[to].Load()
	}
	return nil
}

func classOf(sp *opSpan) int {
	switch {
	case sp == nil:
		return clsBackground
	case sp.kind == history.KindWrite:
		return clsWrite
	}
	return clsSnapshot
}

// countTypes attributes count transmissions of type t.
func (tr *tracer) countTypes(t wire.Type, count, from, to int) {
	if int(t) < len(tr.byClass) {
		tr.byClass[t][classOf(tr.owner(t, from, to))].Add(int64(count))
	}
}

// callIdentity names the quorum call a request transmission belongs to:
// Build returns a fresh message each round, but a retransmission reuses the
// call's snapshot index or its immutable payload slice.
func callIdentity(m *wire.Message) any {
	switch m.Type {
	case wire.TSnapshot:
		return m.SSN
	case wire.TWrite:
		if len(m.Reg) > 0 {
			return &m.Reg[0]
		}
	case wire.TSave:
		if len(m.Saves) > 0 {
			return &m.Saves[0]
		}
	}
	return nil
}

func (tr *tracer) onSend(from, to, peers int, m *wire.Message, t0, t1 int64) {
	tr.sendNS.add(t1 - t0)
	tr.framesOut.Add(int64(peers))
	if to >= 0 {
		if to == from {
			tr.framesOut.Add(-1)
		}
		tr.countTypes(m.Type, 1, from, to)
	}
	if isRequest(m.Type) && from >= 0 && from < tr.n {
		cs := &tr.calls[from]
		id := callIdentity(m)
		cs.mu.Lock()
		if int(m.Type) < len(cs.sends) {
			cs.sends[m.Type]++
			if id == nil || cs.last[m.Type] != id {
				cs.calls[m.Type]++
				cs.last[m.Type] = id
			}
		}
		cs.mu.Unlock()
	}
	if sp := tr.owner(m.Type, from, to); sp != nil {
		sp.add(child{name: "send", node: from, start: t0, end: t1})
		if isRequest(m.Type) {
			sp.mu.Lock()
			if sp.firstSend == 0 && !sp.closed {
				sp.firstSend = t0
			}
			sp.mu.Unlock()
		}
	}
	if tr.sendCount.Add(1)%sampleEvery == 0 {
		tr.sampleMu.Lock()
		if len(tr.samples) < sampleCap {
			tr.samples = append(tr.samples, m) // immutable once sent
		}
		tr.sampleMu.Unlock()
	}
}

func (tr *tracer) recvEnter(id int) {
	d := &tr.disp[id]
	t := tr.now()
	if d.lastRet != 0 && tr.on.Load() && d.lastRet >= tr.onSince.Load() {
		gap := t - d.lastRet
		tr.handlerNS.add(gap)
		tr.busyNS.Add(gap)
		if d.cur != nil {
			d.cur.add(child{name: "handle", node: id, start: d.lastRet, end: t})
		}
	}
	d.lastRet, d.cur = 0, nil
}

func (tr *tracer) recvReturn(id int, m *wire.Message, depth int) {
	if !tr.on.Load() {
		return
	}
	t := tr.now()
	d := &tr.disp[id]
	d.lastRet = t
	d.cur = tr.owner(m.Type, int(m.From), id)
	tr.depth.add(int64(depth))
	if int(m.From) != id {
		tr.framesIn.Add(1)
	}
	if d.cur != nil && isAck(m.Type) && d.cur.node == id {
		d.cur.mu.Lock()
		if !d.cur.closed {
			d.cur.lastAck = t
		}
		d.cur.mu.Unlock()
	}
	if tr.netsim && m.Seq%onewayEvery == 0 {
		tr.sentMu.Lock()
		sent, found := tr.sentAt[m.Seq]
		delete(tr.sentAt, m.Seq)
		tr.sentMu.Unlock()
		if found {
			tr.oneway.add(t - sent)
		}
	}
}

// OnSend implements netsim.TraceHook: it stamps a sample of envelopes so
// the one-way delay runs from netsim's send to the shim's Recv return.
func (tr *tracer) OnSend(from, to int, m *wire.Message, at time.Time) {
	if !tr.on.Load() || m.Seq%onewayEvery != 0 {
		return
	}
	tr.sentMu.Lock()
	tr.sentAt[m.Seq] = int64(at.Sub(tr.base))
	tr.sentMu.Unlock()
}

// OnDeliver implements netsim.TraceHook.
func (tr *tracer) OnDeliver(from, to int, m *wire.Message, at time.Time) {}

// begin opens the span of a client operation at node id.
func (tr *tracer) begin(id int, kind history.Kind) *opSpan {
	if tr == nil {
		return nil
	}
	sp := &opSpan{id: tr.nextID.Add(1), node: id, kind: kind, start: tr.now()}
	tr.inflight[id].Store(sp)
	return sp
}

// end closes the span and folds it into the aggregates: self time is the
// span's duration minus the part of it the children cover.
func (tr *tracer) end(sp *opSpan) {
	if tr == nil {
		return
	}
	sp.end = tr.now()
	tr.inflight[sp.node].Store(nil)
	// Once closed, no goroutine writes the span again.
	sp.mu.Lock()
	sp.closed = true
	sp.mu.Unlock()

	dur := sp.end - sp.start
	var sendNS, handleNS int64
	for _, c := range sp.children {
		if c.name == "send" {
			sendNS += c.end - c.start
		} else {
			handleNS += c.end - c.start
		}
	}
	self := dur - covered(sp.children, sp.start, sp.end)
	if sp.firstSend > 0 {
		tr.invokeToSend.add(sp.firstSend - sp.start)
	}
	if sp.lastAck > 0 {
		tr.ackToReturn.add(sp.end - sp.lastAck)
	}
	tr.spanMu.Lock()
	tr.ops++
	tr.opNS += dur
	tr.selfNS += self
	tr.sendChildNS += sendNS
	tr.handleChildNS += handleNS
	if sp.id%keepEvery == 0 && len(tr.kept) < keepCap {
		tr.kept = append(tr.kept, sp)
	} else {
		sp.children = nil
	}
	tr.spanMu.Unlock()
}

// covered returns the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(cs []child, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(cs))
	for _, c := range cs {
		s, e := max(c.start, lo), min(c.end, hi)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}
