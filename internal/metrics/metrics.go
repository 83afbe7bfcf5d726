// Package metrics is the one metering and observability package. It
// holds the lock-free counters behind every quantity the paper's
// complexity claims are stated in (messages and bytes by message type,
// drops, duplicates, evictions, hostile-input rejects), a fixed-size
// lock-free latency histogram, a bounded event journal, and the HTTP
// export server (/metrics in Prometheus text format, /statusz JSON,
// pprof).
//
// It imports only wire and the standard library, so every other package —
// the transports, the node runtime, the algorithms and the cmd tools — can
// depend on it without cycles. Every meter is O(1) space no matter how
// many operations a run performs, so a long-running deployment can meter
// every operation.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"selfstabsnap/internal/wire"
)

// Counters aggregates network-level counts. All methods are safe for
// concurrent use. The zero value is ready to use.
type Counters struct {
	msgs         [64]atomic.Int64 // indexed by wire.Type
	bytes        [64]atomic.Int64
	drops        atomic.Int64
	dups         atomic.Int64
	evictions    atomic.Int64
	reconnects   atomic.Int64
	writeFails   atomic.Int64
	invalidTypes atomic.Int64
	invalidObjs  atomic.Int64
	resetRejects atomic.Int64
}

// inRange reports whether t indexes the fixed per-type arrays. A transient
// fault may corrupt a message's type beyond the known range; the meter must
// count that, not panic on it.
func (c *Counters) inRange(t wire.Type) bool { return int(t) < len(c.msgs) }

// RecordSend accounts one transmitted message of type t and size n bytes.
// An out-of-range type is counted under InvalidTypes instead.
func (c *Counters) RecordSend(t wire.Type, n int) {
	if !c.inRange(t) {
		c.invalidTypes.Add(1)
		return
	}
	c.msgs[t].Add(1)
	c.bytes[t].Add(int64(n))
}

// RecordSendMany accounts `count` transmitted messages of type t, each of
// size n bytes — exactly equivalent to count calls to RecordSend(t, n), but
// with two atomic adds instead of 2·count. The broadcast fast path uses it:
// marshal-once fan-out still meters one send per (from, to) pair.
func (c *Counters) RecordSendMany(t wire.Type, count, n int) {
	if count <= 0 {
		return
	}
	if !c.inRange(t) {
		c.invalidTypes.Add(int64(count))
		return
	}
	c.msgs[t].Add(int64(count))
	c.bytes[t].Add(int64(count) * int64(n))
}

// RecordDrop accounts one message lost by the adversary (or, on the TCP
// transport, by a failed write or unreachable peer).
func (c *Counters) RecordDrop() { c.drops.Add(1) }

// RecordDup accounts one message duplicated by the adversary.
func (c *Counters) RecordDup() { c.dups.Add(1) }

// RecordEviction accounts one message lost to bounded-inbox overflow
// (drop-oldest): the channel-capacity loss of the paper's §2 model.
func (c *Counters) RecordEviction() { c.evictions.Add(1) }

// RecordReconnect accounts one successful (re-)established peer connection
// on the TCP transport.
func (c *Counters) RecordReconnect() { c.reconnects.Add(1) }

// RecordWriteFailure accounts one frame that could not be written to an
// established connection (the message is also counted as a drop).
func (c *Counters) RecordWriteFailure() { c.writeFails.Add(1) }

// RecordInvalidType accounts one message whose type fell outside the known
// range — the footprint of a transient fault corrupting a type field.
func (c *Counters) RecordInvalidType() { c.invalidTypes.Add(1) }

// RecordInvalidObj accounts one message whose object id fell outside the
// node's object table — the multi-object analogue of RecordInvalidType: a
// transient fault may corrupt the id arbitrarily, and the dispatcher must
// drop (and meter) such a message rather than index past the table.
func (c *Counters) RecordInvalidObj() { c.invalidObjs.Add(1) }

// Messages returns the number of messages of type t sent so far; 0 for an
// out-of-range t.
func (c *Counters) Messages(t wire.Type) int64 {
	if !c.inRange(t) {
		return 0
	}
	return c.msgs[t].Load()
}

// Bytes returns the bytes of type-t messages sent so far; 0 for an
// out-of-range t.
func (c *Counters) Bytes(t wire.Type) int64 {
	if !c.inRange(t) {
		return 0
	}
	return c.bytes[t].Load()
}

// TotalMessages returns the number of messages of any type sent so far.
func (c *Counters) TotalMessages() int64 {
	var s int64
	for i := range c.msgs {
		s += c.msgs[i].Load()
	}
	return s
}

// TotalBytes returns bytes across all message types.
func (c *Counters) TotalBytes() int64 {
	var s int64
	for i := range c.bytes {
		s += c.bytes[i].Load()
	}
	return s
}

// Drops returns the number of adversarially dropped messages.
func (c *Counters) Drops() int64 { return c.drops.Load() }

// Dups returns the number of adversarially duplicated messages.
func (c *Counters) Dups() int64 { return c.dups.Load() }

// Evictions returns the number of messages lost to inbox overflow.
func (c *Counters) Evictions() int64 { return c.evictions.Load() }

// Reconnects returns the number of successful peer (re-)connections.
func (c *Counters) Reconnects() int64 { return c.reconnects.Load() }

// WriteFailures returns the number of failed frame writes.
func (c *Counters) WriteFailures() int64 { return c.writeFails.Load() }

// InvalidTypes returns the number of out-of-range message types seen.
func (c *Counters) InvalidTypes() int64 { return c.invalidTypes.Load() }

// InvalidObjs returns the number of out-of-range object ids seen.
func (c *Counters) InvalidObjs() int64 { return c.invalidObjs.Load() }

// RecordResetReject accounts one reset-plane or consensus message dropped
// by shape validation before any state transition — a hostile sender id,
// negative epoch, short register payload, or a misrouted type. The
// bounded-counter wrapper records these so campaigns can assert
// that corrupted frames are metered rather than silently absorbed.
func (c *Counters) RecordResetReject() { c.resetRejects.Add(1) }

// ResetRejects returns the number of rejected reset-plane messages.
func (c *Counters) ResetRejects() int64 { return c.resetRejects.Load() }

// Snapshot captures the current counter values.
func (c *Counters) Snapshot() Snapshot {
	s := Snapshot{PerType: map[wire.Type]TypeCount{}}
	for i := range c.msgs {
		m, b := c.msgs[i].Load(), c.bytes[i].Load()
		if m == 0 && b == 0 {
			continue
		}
		s.PerType[wire.Type(i)] = TypeCount{Messages: m, Bytes: b}
		s.Messages += m
		s.Bytes += b
	}
	s.Drops = c.drops.Load()
	s.Dups = c.dups.Load()
	s.Evictions = c.evictions.Load()
	s.Reconnects = c.reconnects.Load()
	s.WriteFailures = c.writeFails.Load()
	s.InvalidTypes = c.invalidTypes.Load()
	s.InvalidObjs = c.invalidObjs.Load()
	s.ResetRejects = c.resetRejects.Load()
	return s
}

// TypeCount is the per-message-type slice of a Snapshot.
type TypeCount struct {
	Messages int64
	Bytes    int64
}

// Snapshot is a point-in-time copy of all counters.
type Snapshot struct {
	PerType       map[wire.Type]TypeCount
	Messages      int64
	Bytes         int64
	Drops         int64
	Dups          int64
	Evictions     int64
	Reconnects    int64
	WriteFailures int64
	InvalidTypes  int64
	InvalidObjs   int64
	ResetRejects  int64
}

// Sub returns the difference s − o, the traffic between two snapshots.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	d := Snapshot{
		PerType:       map[wire.Type]TypeCount{},
		Messages:      s.Messages - o.Messages,
		Bytes:         s.Bytes - o.Bytes,
		Drops:         s.Drops - o.Drops,
		Dups:          s.Dups - o.Dups,
		Evictions:     s.Evictions - o.Evictions,
		Reconnects:    s.Reconnects - o.Reconnects,
		WriteFailures: s.WriteFailures - o.WriteFailures,
		InvalidTypes:  s.InvalidTypes - o.InvalidTypes,
		InvalidObjs:   s.InvalidObjs - o.InvalidObjs,
		ResetRejects:  s.ResetRejects - o.ResetRejects,
	}
	for t, tc := range s.PerType {
		prev := o.PerType[t]
		diff := TypeCount{Messages: tc.Messages - prev.Messages, Bytes: tc.Bytes - prev.Bytes}
		if diff.Messages != 0 || diff.Bytes != 0 {
			d.PerType[t] = diff
		}
	}
	return d
}

// MessagesOf sums the message counts of the given types.
func (s Snapshot) MessagesOf(tt ...wire.Type) int64 {
	var n int64
	for _, t := range tt {
		n += s.PerType[t].Messages
	}
	return n
}

// BytesOf sums the byte counts of the given types.
func (s Snapshot) BytesOf(tt ...wire.Type) int64 {
	var n int64
	for _, t := range tt {
		n += s.PerType[t].Bytes
	}
	return n
}

// String renders the snapshot as an aligned table sorted by message type.
func (s Snapshot) String() string {
	tt := make([]wire.Type, 0, len(s.PerType))
	for t := range s.PerType {
		tt = append(tt, t)
	}
	sort.Slice(tt, func(i, j int) bool { return tt[i] < tt[j] })
	var b strings.Builder
	for _, t := range tt {
		tc := s.PerType[t]
		fmt.Fprintf(&b, "%-14s msgs=%-8d bytes=%d\n", t, tc.Messages, tc.Bytes)
	}
	fmt.Fprintf(&b, "%-14s msgs=%-8d bytes=%d drops=%d dups=%d evictions=%d\n", "TOTAL", s.Messages, s.Bytes, s.Drops, s.Dups, s.Evictions)
	if s.Reconnects != 0 || s.WriteFailures != 0 || s.InvalidTypes != 0 || s.InvalidObjs != 0 {
		fmt.Fprintf(&b, "%-14s reconnects=%d write-failures=%d invalid-types=%d invalid-objs=%d\n", "TRANSPORT", s.Reconnects, s.WriteFailures, s.InvalidTypes, s.InvalidObjs)
	}
	return b.String()
}
