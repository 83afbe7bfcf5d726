package node

import (
	"sync"

	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// fairLane is the shard queue of a multi-object runtime: one bounded
// drop-oldest ring per object, served round-robin. A plain shared FIFO
// would let a saturated hot object fill the whole queue and put hundreds
// of its messages in front of a cold object's single request —
// head-of-line blocking that turns "one object is overloaded" into "every
// object on this shard has the hot object's tail latency". With per-object
// rings and one-message-per-object round-robin service, a cold message
// waits at most one message per *currently backlogged object*, so cold-
// object p99 degrades by a small factor (the number of simultaneously hot
// objects) instead of by the hot object's queue depth. Within one object
// the ring is strict FIFO, preserving the per-(object, sender) ordering
// discipline sharded dispatch is built on.
//
// Like mailbox.Queue, Pop parks through a simclock.Clock with a sticky
// signal, so under a virtual clock the shard worker is a deterministic
// lock-step scheduler task. Rings grow lazily (a cold object that never
// sees traffic costs three words), doubling up to the per-object capacity;
// overflow evicts that object's oldest message and reports it so the
// receive loop can meter the loss, exactly like the transport inbox.
type fairLane struct {
	clk    simclock.Clock
	avail  simclock.Signal
	wait   []simclock.Waitable // 1-element list, hoisted so Pop stays allocation-free
	mu     sync.Mutex
	rings  []msgRing // indexed by object id
	rr     int       // next object the round-robin scan starts at
	count  int       // total queued across all rings
	capPer int       // max queued per object
	closed bool
}

// msgRing is one object's bounded FIFO ring.
type msgRing struct {
	buf   []*wire.Message
	head  int
	count int
}

// fairLaneMinRing is the initial ring allocation of an object's first
// queued message; rings double from here up to capPer.
const fairLaneMinRing = 16

func newFairLane(clk simclock.Clock, objects, capPer int) *fairLane {
	if capPer <= 0 {
		capPer = 1
	}
	l := &fairLane{
		clk:    clk,
		avail:  clk.NewSignal(),
		rings:  make([]msgRing, objects),
		capPer: capPer,
	}
	l.wait = []simclock.Waitable{l.avail}
	return l
}

// Push enqueues m on object obj's ring, evicting that ring's oldest
// message if the object is at capacity. It reports whether an eviction
// happened; pushes to a closed lane are discarded and report false. The
// caller must have bounds-checked obj against the object table.
func (l *fairLane) Push(obj int, m *wire.Message) (evicted bool) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	rg := &l.rings[obj]
	switch {
	case rg.count == l.capPer:
		// Full: drop this object's oldest. Other objects are untouched.
		rg.buf[rg.head] = nil
		rg.head = (rg.head + 1) % len(rg.buf)
		rg.count--
		l.count--
		evicted = true
	case rg.count == len(rg.buf):
		// Grow (first push allocates): double, straighten, cap at capPer.
		n := len(rg.buf) * 2
		if n < fairLaneMinRing {
			n = fairLaneMinRing
		}
		if n > l.capPer {
			n = l.capPer
		}
		nb := make([]*wire.Message, n)
		for i := 0; i < rg.count; i++ {
			nb[i] = rg.buf[(rg.head+i)%len(rg.buf)]
		}
		rg.buf, rg.head = nb, 0
	}
	rg.buf[(rg.head+rg.count)%len(rg.buf)] = m
	rg.count++
	l.count++
	l.mu.Unlock()
	l.avail.Set()
	return evicted
}

// Pop blocks until a message is available or the lane is closed, then
// serves the next backlogged object in round-robin order (FIFO within the
// object). After close, queued messages are still drained; ok is false
// once empty.
func (l *fairLane) Pop() (*wire.Message, bool) {
	for {
		l.mu.Lock()
		if l.count > 0 {
			n := len(l.rings)
			for i := 0; i < n; i++ {
				idx := l.rr + i
				if idx >= n {
					idx -= n
				}
				rg := &l.rings[idx]
				if rg.count == 0 {
					continue
				}
				m := rg.buf[rg.head]
				rg.buf[rg.head] = nil
				rg.head = (rg.head + 1) % len(rg.buf)
				rg.count--
				l.count--
				l.rr = idx + 1
				if l.rr >= n {
					l.rr = 0
				}
				more := l.count > 0
				closed := l.closed
				l.mu.Unlock()
				if more || closed {
					// Signal consumption is wake-one: re-arm so a
					// subsequent drain (or the close wake-up) stays live —
					// the same discipline as mailbox.Queue.
					l.avail.Set()
				}
				return m, true
			}
		}
		if l.closed {
			l.mu.Unlock()
			l.avail.Set() // propagate the close wake-up
			return nil, false
		}
		l.mu.Unlock()
		l.clk.Wait(l.wait...)
	}
}

// Close wakes the consumer; subsequent Pops return false once the rings
// are drained.
func (l *fairLane) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.avail.Set()
}

// Len returns the total number of queued messages across all objects.
func (l *fairLane) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}
