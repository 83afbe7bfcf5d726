// Package consensus implements self-stabilizing multivalued consensus for
// the asynchronous crash-prone model, after Lundström–Raynal–Schiller
// (2021). One Machine is one single-shot consensus instance, identified by
// the reset epoch it serves; the reset layer creates a fresh instance per
// epoch and feeds it ticks and messages exactly like a reset.Engine — the
// Machine is a pure state machine with no clock, goroutine, or transport
// dependence, which is what makes it independently unit-testable and
// deterministic under the virtual scheduler.
//
// The algorithm is a rotating-ballot single-decree agreement: ballots are
// partitioned by proposer id (ballot ≡ id mod n), every proposer escalates
// deterministically past the highest ballot it has observed, and
// leadership is claimed by id-staggered timeout rather than election — so
// any live majority decides without a distinguished coordinator, which is
// precisely the property the reset layer needs once node 0 may be crashed.
// Self-stabilization comes from the enclosing design rather than from any
// single field: all state is bounded and per-instance, a corrupted ballot
// merely advances the rotation, corrupted instances are scrubbed wholesale
// on epoch adoption, and decided values are re-replayed to laggards by the
// reset layer, so every transient corruption is outgrown within O(1)
// instances.
//
// Values are frozen register vectors (the payload a global reset agrees
// on), carried verbatim in wire.Message.Reg. Ballots ride in TS and the
// acceptor's accepted ballot in SNS (0 = none; real ballots start at 1).
package consensus

import (
	"fmt"
	"hash/fnv"

	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// Broadcast as an Output.To means "send to every other node".
const Broadcast = -1

// Output is one message the caller must transmit.
type Output struct {
	To  int
	Msg *wire.Message
}

// Result is what a tick or message handler asks the caller to do.
// Decided fires exactly once per instance (edge-triggered), carrying the
// agreed value; Rejected marks a hostile input that was dropped.
type Result struct {
	Outputs  []Output
	Decided  bool
	Value    types.RegVector
	Rejected bool
}

func (r *Result) send(to int, m *wire.Message) {
	r.Outputs = append(r.Outputs, Output{To: to, Msg: m})
}

// Timing constants, in ticks of the caller's drive loop. Leadership is
// claimed after an id-staggered idle period so that the lowest live id
// usually runs the instance alone; retransmits keep the phase moving under
// message loss.
const (
	retxTicks        = 2
	baseTimeoutTicks = 8
	perIDStagger     = 6
)

type promise struct {
	accBallot int64 // 0 = the acceptor had accepted nothing
	accVal    types.RegVector
}

// Machine is one consensus instance. It is not concurrency-safe: the
// caller (reset.Engine) serializes access under its own lock.
type Machine struct {
	id, n int
	epoch int64

	// Proposer state.
	proposal types.RegVector // own candidate value; nil until Propose
	leading  bool
	ballot   int64 // ballot being led (valid when leading)
	inAccept bool  // prepare quorum reached, pushing accepts
	chosen   types.RegVector
	promises map[int]promise
	accepts  map[int]struct{}

	// Acceptor state.
	promised  int64
	accBallot int64 // 0 = none
	accVal    types.RegVector

	// Learner state.
	decided  bool
	decision types.RegVector

	maxSeen int64 // highest ballot observed anywhere
	idle    int   // ticks since last observed progress
}

// NewMachine returns a fresh instance for the given reset epoch.
func NewMachine(id, n int, epoch int64) *Machine {
	m := &Machine{id: id, n: n, epoch: epoch}
	m.Scrub()
	return m
}

// Scrub resets every soft field to the initial state, keeping identity and
// epoch. The reset layer calls it (or discards the instance) on epoch
// adoption so stale quorum bookkeeping cannot leak across instances — the
// self-stabilization hygiene of the corrupted-instance path.
func (m *Machine) Scrub() {
	m.proposal, m.leading, m.ballot, m.inAccept, m.chosen = nil, false, 0, false, nil
	m.promises, m.accepts = make(map[int]promise), make(map[int]struct{})
	m.promised, m.accBallot, m.accVal = 0, 0, nil
	m.decided, m.decision = false, nil
	m.maxSeen, m.idle = 0, 0
}

// Epoch returns the instance's reset epoch.
func (m *Machine) Epoch() int64 { return m.epoch }

// Decided returns the agreed value once the instance has decided.
func (m *Machine) Decided() (types.RegVector, bool) { return m.decision, m.decided }

func (m *Machine) majority() int { return m.n/2 + 1 }

// nextBallot returns the smallest ballot above everything observed that
// belongs to this node's rotation slot.
func (m *Machine) nextBallot() int64 {
	b := (m.maxSeen/int64(m.n)+1)*int64(m.n) + int64(m.id)
	if b <= m.maxSeen { // id slot below maxSeen's slot in the same round
		b += int64(m.n)
	}
	return b
}

func (m *Machine) observe(ballot int64) {
	if ballot > m.maxSeen {
		m.maxSeen = ballot
	}
}

func (m *Machine) timeout() int { return baseTimeoutTicks + perIDStagger*m.id }

// Propose submits this node's candidate value. The machine does not claim
// leadership immediately — the id-staggered tick timeout does — so under a
// live low-id node exactly one leader emerges per instance.
func (m *Machine) Propose(v types.RegVector) Result {
	if m.proposal == nil && len(v) == m.n {
		m.proposal = v
	}
	return Result{}
}

// OnTick advances timers: retransmit the current phase while leading, and
// claim leadership when the instance has been idle past this id's stagger.
func (m *Machine) OnTick() Result {
	var res Result
	if m.decided {
		return res
	}
	m.idle++
	if m.leading {
		if m.idle%retxTicks == 0 {
			m.transmitPhase(&res)
		}
		if m.idle >= m.timeout() { // our ballot is going nowhere; escalate
			m.startBallot(&res)
		}
		return res
	}
	if m.proposal != nil && m.idle >= m.timeout() {
		m.startBallot(&res)
	}
	return res
}

func (m *Machine) startBallot(res *Result) {
	m.ballot = m.nextBallot()
	m.observe(m.ballot)
	m.leading, m.inAccept, m.chosen = true, false, nil
	m.promises = make(map[int]promise)
	m.accepts = make(map[int]struct{})
	m.idle = 0
	// Self-promise: the proposer is its own acceptor.
	if m.ballot >= m.promised {
		m.promised = m.ballot
		m.promises[m.id] = promise{accBallot: m.accBallot, accVal: m.accVal}
	}
	m.transmitPhase(res)
	m.checkPrepareQuorum(res)
}

func (m *Machine) transmitPhase(res *Result) {
	if m.inAccept {
		res.send(Broadcast, &wire.Message{Type: wire.TCnsAcc, Epoch: m.epoch, TS: m.ballot, Reg: m.chosen.Share()})
	} else {
		res.send(Broadcast, &wire.Message{Type: wire.TCnsPrep, Epoch: m.epoch, TS: m.ballot})
	}
}

// OnMessage handles one consensus message of this instance's epoch. The
// caller has already validated the epoch; the machine bounds-checks the
// sender id, ballot, and value shape itself (the InvalidTypes/InvalidObjs
// discipline: hostile inputs are flagged Rejected and dropped, never
// trusted).
func (m *Machine) OnMessage(msg *wire.Message) Result {
	var res Result
	from := int(msg.From)
	if !ValidShape(msg, m.n) {
		res.Rejected = true
		return res
	}
	b := msg.TS
	m.observe(b)
	switch msg.Type {
	case wire.TCnsPrep:
		m.idle = 0 // a live leader is working the instance
		if b >= m.promised {
			m.promised = b
			if m.leading && b > m.ballot {
				m.leading = false // stand down to the higher ballot
			}
			res.send(from, &wire.Message{
				Type: wire.TCnsProm, Epoch: m.epoch, TS: b,
				SNS: m.accBallot, Reg: m.accVal.Share(),
			})
		}
	case wire.TCnsProm:
		if m.leading && !m.inAccept && b == m.ballot {
			m.idle = 0
			m.promises[from] = promise{accBallot: msg.SNS, accVal: msg.Reg}
			m.checkPrepareQuorum(&res)
		}
	case wire.TCnsAcc:
		m.idle = 0
		if b >= m.promised {
			m.promised = b
			m.accBallot, m.accVal = b, msg.Reg
			if m.leading && b > m.ballot {
				m.leading = false
			}
			res.send(from, &wire.Message{Type: wire.TCnsAccAck, Epoch: m.epoch, TS: b})
		}
	case wire.TCnsAccAck:
		if m.leading && m.inAccept && b == m.ballot {
			m.idle = 0
			m.accepts[from] = struct{}{}
			m.checkAcceptQuorum(&res)
		}
	case wire.TCnsDecide:
		m.decide(msg.Reg, &res)
	}
	return res
}

func (m *Machine) checkPrepareQuorum(res *Result) {
	if m.inAccept || len(m.promises) < m.majority() {
		return
	}
	// Classic value rule: adopt the accepted value of the highest accepted
	// ballot among the promise quorum; free choice (our proposal) only if
	// nobody in the quorum accepted anything.
	var best promise
	for _, p := range m.promises {
		if p.accBallot > best.accBallot {
			best = p
		}
	}
	if best.accBallot > 0 {
		m.chosen = best.accVal
	} else {
		m.chosen = m.proposal
	}
	if m.chosen == nil {
		// Acceptor-only node promoted to leader by timeout corruption with
		// no proposal of its own: nothing to push, stand down.
		m.leading = false
		return
	}
	m.inAccept = true
	m.idle = 0
	// Self-accept before fanning out.
	m.accBallot, m.accVal = m.ballot, m.chosen
	m.accepts[m.id] = struct{}{}
	m.transmitPhase(res)
	m.checkAcceptQuorum(res)
}

func (m *Machine) checkAcceptQuorum(res *Result) {
	if len(m.accepts) < m.majority() {
		return
	}
	m.decide(m.chosen, res)
	if res.Decided {
		res.send(Broadcast, &wire.Message{Type: wire.TCnsDecide, Epoch: m.epoch, TS: m.ballot, Reg: m.decision.Share()})
	}
}

func (m *Machine) decide(v types.RegVector, res *Result) {
	if m.decided {
		return
	}
	m.decided, m.decision = true, v
	res.Decided, res.Value = true, v
}

// DebugState is a snapshot of the instance for tests and statusz.
type DebugState struct {
	Epoch     int64
	Leading   bool
	InAccept  bool
	Ballot    int64
	Promised  int64
	AccBallot int64
	Promises  int
	Accepts   int
	Decided   bool
	MaxSeen   int64
}

// Debug returns the current DebugState.
func (m *Machine) Debug() DebugState {
	return DebugState{
		Epoch: m.epoch, Leading: m.leading, InAccept: m.inAccept,
		Ballot: m.ballot, Promised: m.promised, AccBallot: m.accBallot,
		Promises: len(m.promises), Accepts: len(m.accepts),
		Decided: m.decided, MaxSeen: m.maxSeen,
	}
}

// String renders a one-line summary.
func (s DebugState) String() string {
	return fmt.Sprintf("epoch=%d leading=%v accept=%v ballot=%d promised=%d decided=%v",
		s.Epoch, s.Leading, s.InAccept, s.Ballot, s.Promised, s.Decided)
}

// DigestReg hashes a register vector with FNV-1a — the digest the
// consensus invariant checker compares across nodes. Two vectors with
// equal (TS, value) sequences hash equal.
func DigestReg(r types.RegVector) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(len(r)))
	for _, e := range r {
		put(uint64(e.TS))
		put(uint64(len(e.Val)))
		h.Write(e.Val)
	}
	return h.Sum64()
}

// ValidShape reports whether msg is a well-formed consensus message for an
// n-node instance: known type, sender id in [0,n), positive ballot, and a
// value vector of exactly n entries where one is required. Both the
// Machine and the reset engine check it before any state transition, so a
// single corrupted frame can never freeze a node or seed quorum maps.
func ValidShape(msg *wire.Message, n int) bool {
	from := int(msg.From)
	ok := from >= 0 && from < n && msg.TS > 0
	switch msg.Type {
	case wire.TCnsPrep, wire.TCnsAccAck:
		return ok
	case wire.TCnsProm:
		return ok && msg.SNS >= 0 &&
			(msg.SNS == 0 || len(msg.Reg) == n) &&
			(msg.Reg == nil || len(msg.Reg) == n)
	case wire.TCnsAcc, wire.TCnsDecide:
		return ok && len(msg.Reg) == n
	}
	return false
}

// IsConsensusType reports whether t is one of the consensus wire types.
func IsConsensusType(t wire.Type) bool {
	switch t {
	case wire.TCnsPrep, wire.TCnsProm, wire.TCnsAcc, wire.TCnsAccAck, wire.TCnsDecide:
		return true
	}
	return false
}
