package node

import (
	"selfstabsnap/internal/wire"
)

// Sharded dispatch (Options.DispatchShards > 1).
//
// With one shard the receive loop handles every arriving message inline,
// which serialises HandleMessage globally per node.
// The paper's §2 model is weaker than that: a node's steps only have to
// *admit a serialization* (the history checker verifies one exists), and
// the network itself may reorder, lose and duplicate messages. The only
// ordering the algorithms actually rely on between two arriving messages
// is per writer — register k is written only by node k, so handling the
// streams of two different senders concurrently is indistinguishable from
// a (legal) network reordering, while reordering one sender's stream
// against itself could, e.g., regress a register to an older timestamp
// between repairs. Sharded dispatch therefore fans messages out to a
// worker pool keyed by a stable shard key (default: the sender), with
// strict FIFO inside each shard.
//
// Quorum acks get a dedicated lane: they are consumed only by the call
// collector (the algorithms' HandleMessage ignores them — see Router), so
// a slow HandleMessage on a shard never delays ack matching, and a burst
// of acks arriving back-to-back is matched with a single pass over the
// active-call list (offerBatch).
//
// Topology with S shards:
//
//	transport Recv ─ receive loop ─┬─ shard 0 queue ─ worker: HandleMessage + offer
//	                               ├─ …
//	                               ├─ shard S-1 queue ─ worker
//	                               └─ ack queue ─ ack worker: offerBatch
//
// Every queue is a bounded drop-oldest lane parked through the runtime's
// clock, so under a virtual clock the workers are deterministic scheduler
// tasks and the simclock determinism suite holds for any fixed shard count
// (hashes are per (seed, shards) configuration: shards=1 and shards=4 each
// replay identically, but not to each other).
//
// Multi-object runtimes shard by (object, sender): the route key is mixed
// with the message's object id before reduction, so one object's senders
// spread over the workers exactly as before while distinct objects land on
// decorrelated shards. Inside a shard the lane is fair per object (see
// fairlane.go) — a saturated hot object queues behind itself, not in front
// of colder objects that hash onto the same worker.

// Lane selects which dispatch lane an arriving message takes under
// sharded dispatch.
type Lane int8

const (
	// LaneShard delivers the message to the shard worker selected by the
	// route key: the algorithm's HandleMessage runs there, followed by
	// quorum-call matching.
	LaneShard Lane = iota
	// LaneAck delivers the message to the dedicated quorum-ack lane:
	// only (batched) call matching runs. An algorithm may return it only
	// for message types its HandleMessage ignores entirely.
	LaneAck
)

// Router is optionally implemented by an Algorithm to annotate arriving
// messages for sharded dispatch. Route returns the lane and, for
// LaneShard, a stable shard key: two messages whose handling must stay
// mutually ordered (in this repository: two messages from the same
// writer, hence about the same register) must map to the same key. The
// key is reduced modulo the shard count; its absolute value carries no
// meaning. Route runs on the receive loop and must not take the
// algorithm's state lock.
//
// Algorithms that do not implement Router dispatch everything on
// LaneShard keyed by the sending node — always safe, since it preserves
// per-sender FIFO and the ack lane is merely an optimisation.
type Router interface {
	Route(m *wire.Message) (Lane, int)
}

// ackBatchMax bounds how many queued acks one drain cycle coalesces into
// a single active-list pass.
const ackBatchMax = 64

// shardIndex reduces a (object, sender-key) pair to a shard. The key is
// taken modulo the shard count through uint32 (route keys are node ids,
// never negative) after mixing in the object id with a Knuth
// multiplicative hash, so object 0 — every single-object deployment —
// reduces to exactly the historical key%nshards mapping while distinct
// objects shift their senders onto decorrelated workers.
func shardIndex(obj int32, key, nshards int) int {
	h := uint64(uint32(key)) + uint64(uint32(obj))*2654435761
	return int(h % uint64(nshards))
}

// route pushes m onto its lane: the ack lane, or the shard lane selected
// by the object and the algorithm's route key. Lane overflow models the
// same bounded-channel loss as the transport inbox and is metered as an
// eviction.
func (r *Runtime) route(slot *objSlot, m *wire.Message) {
	lane, key := LaneShard, int(m.From)
	if slot.router != nil {
		lane, key = slot.router.Route(m)
	}
	var evicted bool
	if lane == LaneAck {
		evicted = r.ackQ.Push(m)
	} else {
		evicted = r.shardQ[shardIndex(m.Obj, key, len(r.shardQ))].Push(int(m.Obj), m)
	}
	if evicted {
		r.ctr.RecordEviction()
	}
}

// closeLanes closes every shard lane and the ack lane.
func (r *Runtime) closeLanes() {
	for _, q := range r.shardQ {
		q.Close()
	}
	r.ackQ.Close()
}

// shardLoop handles one shard's stream: strict FIFO per (object, sender),
// fair round-robin across objects, same per-message step as the inline
// path. The receive loop already bounds-checked the object id, so the
// table index here cannot be out of range.
func (r *Runtime) shardLoop(q *fairLane) {
	defer r.wg.Done()
	for {
		m, ok := q.Pop()
		if !ok {
			return
		}
		if r.closeEv.Fired() {
			return
		}
		if r.crashed.Load() {
			continue
		}
		r.handle(r.objs[m.Obj].alg, m)
	}
}

// ackLoop drains the quorum-ack lane in bursts: one blocking Pop, then
// non-blocking TryPops up to ackBatchMax, then a single offerBatch — so a
// retransmission round's worth of acks costs one active-list scan and one
// per-call lock acquisition instead of one each per ack.
func (r *Runtime) ackLoop() {
	defer r.wg.Done()
	batch := make([]*wire.Message, 0, ackBatchMax)
	for {
		m, ok := r.ackQ.Pop()
		if !ok {
			return
		}
		batch = append(batch[:0], m)
		for len(batch) < ackBatchMax {
			m2, ok2 := r.ackQ.TryPop()
			if !ok2 {
				break
			}
			batch = append(batch, m2)
		}
		if r.closeEv.Fired() {
			return
		}
		if r.crashed.Load() {
			continue
		}
		r.offerBatch(batch)
	}
}

// DispatchShards returns the effective number of dispatch shards (1 when
// sharding is disabled).
func (r *Runtime) DispatchShards() int { return r.opts.DispatchShards }

// DispatchDepths reports the current queue depth of each shard lane and
// of the ack lane — the observability series behind the per-shard
// queue-depth gauges. Both are zero-valued when sharding is disabled.
func (r *Runtime) DispatchDepths() (shards []int, ack int) {
	if len(r.shardQ) == 0 {
		return nil, 0
	}
	shards = make([]int, len(r.shardQ))
	for i, q := range r.shardQ {
		shards[i] = q.Len()
	}
	return shards, r.ackQ.Len()
}
