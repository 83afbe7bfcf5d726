package node

import "selfstabsnap/internal/wire"

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
// worker pool keyed by (object, sender), with strict FIFO inside each
// shard. Every message, quorum acks included, takes the same per-message
// step as at one shard (handle: HandleMessage, then quorum-call
// matching); the algorithms' handlers ignore acks, so an ack's step is
// just the match.
//
// Topology with S shards:
//
//	transport Recv ─ receive loop ─┬─ shard 0 queue ─ worker: HandleMessage + offer
//	                               ├─ …
//	                               └─ shard S-1 queue ─ worker: HandleMessage + offer
//
// Every queue is a bounded drop-oldest lane parked through the runtime's
// clock, so under a virtual clock the workers are deterministic scheduler
// tasks and the simclock determinism suite holds for any fixed shard count
// (hashes are per (seed, shards) configuration: shards=1 and shards=4 each
// replay identically, but not to each other).
//
// The shard key mixes the message's object id into the sender before
// reduction, so one object's senders spread over the workers while
// distinct objects land on decorrelated shards. Inside a shard the lane is
// fair per object (see fairlane.go) — a saturated hot object queues behind
// itself, not in front of colder objects that hash onto the same worker.

// shardIndex reduces a (object, sender) pair to a shard. The sender is
// taken modulo the shard count through uint32 (node ids are never
// negative) after mixing in the object id with a Knuth multiplicative
// hash, so object 0 — every single-object deployment — reduces to exactly
// from%nshards while distinct objects shift their senders onto
// decorrelated workers.
func shardIndex(obj int32, from, nshards int) int {
	h := uint64(uint32(from)) + uint64(uint32(obj))*2654435761
	return int(h % uint64(nshards))
}

// route pushes m onto the shard lane selected by its object and sender.
// Lane overflow models the same bounded-channel loss as the transport
// inbox and is metered as an eviction.
func (r *Runtime) route(m *wire.Message) {
	if r.shardQ[shardIndex(m.Obj, int(m.From), len(r.shardQ))].Push(int(m.Obj), m) {
		r.ctr.RecordEviction()
	}
}

// closeLanes closes every shard lane.
func (r *Runtime) closeLanes() {
	for _, q := range r.shardQ {
		q.Close()
	}
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
		r.handle(r.objs[m.Obj], m)
	}
}

// DispatchShards returns the effective number of dispatch shards (1 when
// sharding is disabled).
func (r *Runtime) DispatchShards() int { return r.opts.DispatchShards }

// DispatchDepths reports the current queue depth of each shard lane — the
// observability series behind the per-shard queue-depth gauges. It is nil
// when sharding is disabled.
func (r *Runtime) DispatchDepths() []int {
	if len(r.shardQ) == 0 {
		return nil
	}
	depths := make([]int, len(r.shardQ))
	for i, q := range r.shardQ {
		depths[i] = q.Len()
	}
	return depths
}
