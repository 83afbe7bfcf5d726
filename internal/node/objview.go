package node

import (
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/wire"
)

// ObjView is one hosted object's face of a Runtime: the handle AddObject
// returns and the algorithms hold as their runtime. It embeds the Runtime,
// so node-level surface (ID, N, Majority, Counters, WaitUntil, lifecycle,
// …) promotes unchanged, and overrides exactly the message-producing
// methods — Send, Broadcast, SendToMany, GossipTo, Call — to stamp the
// view's object id on every outgoing message. Stamping is what keys the
// receiving dispatcher's object table; acks come back carrying the same id
// (servers reply through their own view of the same object), so quorum
// calls match only their object's acks.
//
// In a single-object runtime the view stamps object id 0 onto messages
// whose Obj is already 0 — the wire bytes, and therefore all existing
// traces, are bit-for-bit what they were before multi-object hosting
// existed.
type ObjView struct {
	*Runtime
	obj int32
}

// Bind attaches alg to opts.Attach when set (joining an existing
// multi-object host runtime as its next object) and otherwise constructs a
// fresh single-object runtime — the one-line constructor every algorithm
// uses, keeping their signatures identical across both deployment shapes.
func Bind(id int, tr netsim.Transport, alg Algorithm, opts Options) *ObjView {
	if host := opts.Attach; host != nil {
		if host.id != id {
			panic("node: Bind attach id mismatch")
		}
		return host.AddObject(alg)
	}
	r := NewRuntime(id, tr, alg, opts)
	return &ObjView{Runtime: r, obj: 0}
}

// Obj returns the view's object id within its host runtime.
func (v *ObjView) Obj() int { return int(v.obj) }

// stamp writes the view's object id into m's envelope. Arriving messages
// have private envelopes (the transports' copy-on-write contract), so
// stamping a relayed message is as safe as the transport stamping
// From/To/Seq; payload slices are never touched. The write happens only
// when the id differs: a message that already carries the view's id may
// be in flight from several goroutines at once (a reliable-broadcast
// envelope is retransmitted by the loop while a handler relays it), and
// a plain read there is race-free where an idempotent write is not.
func (v *ObjView) stamp(m *wire.Message) *wire.Message {
	if m != nil && m.Obj != v.obj {
		m.Obj = v.obj
	}
	return m
}

// Send transmits m to node `to` on this view's object.
func (v *ObjView) Send(to int, m *wire.Message) {
	v.Runtime.Send(to, v.stamp(m))
}

// Broadcast sends m to every node (including the sender) on this view's
// object.
func (v *ObjView) Broadcast(m *wire.Message) {
	v.Runtime.Broadcast(v.stamp(m))
}

// SendToMany transmits m to every node in to on this view's object.
func (v *ObjView) SendToMany(to []int, m *wire.Message) {
	v.Runtime.SendToMany(to, v.stamp(m))
}

// GossipTo sends build(k) to every peer on this view's object.
func (v *ObjView) GossipTo(build func(k int) *wire.Message) {
	v.Runtime.GossipTo(func(k int) *wire.Message {
		return v.stamp(build(k))
	})
}

// Call performs a quorum call scoped to this view's object: the
// (re)transmitted request is stamped with the object id, and only acks
// carrying the same id are offered to the call's acceptance predicate —
// two objects' concurrent calls never see each other's acks even when the
// algorithms' predicates (ssn matching and the like) would collide.
func (v *ObjView) Call(o CallOpts) ([]*wire.Message, error) {
	build := o.Build
	o.Build = func() *wire.Message {
		return v.stamp(build())
	}
	return v.Runtime.callObj(v.obj, o)
}
