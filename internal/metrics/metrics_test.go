package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/wire"
)

func TestCountersBasic(t *testing.T) {
	var c Counters
	c.RecordSend(wire.TWrite, 100)
	c.RecordSend(wire.TWrite, 50)
	c.RecordSend(wire.TGossip, 10)
	c.RecordDrop()
	c.RecordDup()

	if c.Messages(wire.TWrite) != 2 || c.Bytes(wire.TWrite) != 150 {
		t.Error("per-type counts wrong")
	}
	if c.TotalMessages() != 3 || c.TotalBytes() != 160 {
		t.Error("totals wrong")
	}
	if c.Drops() != 1 || c.Dups() != 1 {
		t.Error("drop/dup wrong")
	}
}

// TestRecordSendManyEquivalence: the batched meter must be arithmetically
// indistinguishable from the per-recipient one — the fan-out fast path
// still accounts one send per (from, to) pair.
func TestRecordSendManyEquivalence(t *testing.T) {
	var batched, looped Counters
	batched.RecordSendMany(wire.TSnapshot, 16, 512)
	for i := 0; i < 16; i++ {
		looped.RecordSend(wire.TSnapshot, 512)
	}
	if batched.Messages(wire.TSnapshot) != looped.Messages(wire.TSnapshot) {
		t.Errorf("messages diverge: %d != %d", batched.Messages(wire.TSnapshot), looped.Messages(wire.TSnapshot))
	}
	if batched.Bytes(wire.TSnapshot) != looped.Bytes(wire.TSnapshot) {
		t.Errorf("bytes diverge: %d != %d", batched.Bytes(wire.TSnapshot), looped.Bytes(wire.TSnapshot))
	}

	var c Counters
	c.RecordSendMany(wire.TWrite, 0, 99)
	c.RecordSendMany(wire.TWrite, -3, 99)
	if c.TotalMessages() != 0 {
		t.Error("non-positive counts must meter nothing")
	}
	c.RecordSendMany(wire.Type(63+1), 4, 10) // out of range: counted as invalid
	if c.InvalidTypes() != 4 || c.TotalMessages() != 0 {
		t.Errorf("out-of-range type: invalid=%d total=%d", c.InvalidTypes(), c.TotalMessages())
	}
}

func TestTransportCounters(t *testing.T) {
	var c Counters
	c.RecordEviction()
	c.RecordEviction()
	c.RecordReconnect()
	c.RecordWriteFailure()
	c.RecordInvalidType()
	c.RecordInvalidObj()
	c.RecordInvalidObj()

	if c.Evictions() != 2 || c.Reconnects() != 1 || c.WriteFailures() != 1 || c.InvalidTypes() != 1 || c.InvalidObjs() != 2 {
		t.Errorf("transport counters wrong: ev=%d rc=%d wf=%d it=%d io=%d",
			c.Evictions(), c.Reconnects(), c.WriteFailures(), c.InvalidTypes(), c.InvalidObjs())
	}
	s := c.Snapshot()
	if s.Evictions != 2 || s.Reconnects != 1 || s.WriteFailures != 1 || s.InvalidTypes != 1 || s.InvalidObjs != 2 {
		t.Errorf("snapshot transport fields wrong: %+v", s)
	}
	d := s.Sub(Snapshot{PerType: map[wire.Type]TypeCount{}, Evictions: 1, InvalidObjs: 1})
	if d.Evictions != 1 || d.Reconnects != 1 || d.InvalidObjs != 1 {
		t.Errorf("Sub ignored transport fields: %+v", d)
	}
	if out := s.String(); !strings.Contains(out, "evictions=2") || !strings.Contains(out, "reconnects=1") {
		t.Errorf("render missing transport counters: %s", out)
	}
}

// TestOutOfRangeTypeDoesNotPanic: a transient-fault-corrupted message type
// beyond the per-type array bound must be counted, never panic the meter.
func TestOutOfRangeTypeDoesNotPanic(t *testing.T) {
	var c Counters
	for _, bad := range []wire.Type{64, 100, 255} {
		c.RecordSend(bad, 10)
		if c.Messages(bad) != 0 || c.Bytes(bad) != 0 {
			t.Errorf("out-of-range type %d metered as a send", bad)
		}
	}
	if c.InvalidTypes() != 3 {
		t.Errorf("invalid types = %d, want 3", c.InvalidTypes())
	}
	if c.TotalMessages() != 0 {
		t.Errorf("invalid sends leaked into totals: %d", c.TotalMessages())
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.RecordSend(wire.TSnapshot, 7)
			}
		}()
	}
	wg.Wait()
	if c.Messages(wire.TSnapshot) != 8000 {
		t.Errorf("lost updates: %d", c.Messages(wire.TSnapshot))
	}
}

func TestSnapshotAndSub(t *testing.T) {
	var c Counters
	c.RecordSend(wire.TWrite, 100)
	before := c.Snapshot()
	c.RecordSend(wire.TWrite, 100)
	c.RecordSend(wire.TSave, 30)
	after := c.Snapshot()

	d := after.Sub(before)
	if d.Messages != 2 || d.Bytes != 130 {
		t.Errorf("diff totals: %d msgs %d bytes", d.Messages, d.Bytes)
	}
	if d.PerType[wire.TWrite].Messages != 1 || d.PerType[wire.TSave].Messages != 1 {
		t.Errorf("diff per-type: %v", d.PerType)
	}
	if d.MessagesOf(wire.TWrite, wire.TSave) != 2 {
		t.Error("MessagesOf wrong")
	}
	if d.BytesOf(wire.TSave) != 30 {
		t.Error("BytesOf wrong")
	}
}

func TestSnapshotString(t *testing.T) {
	var c Counters
	c.RecordSend(wire.TWrite, 10)
	s := c.Snapshot().String()
	if !strings.Contains(s, "WRITE") || !strings.Contains(s, "TOTAL") {
		t.Errorf("render missing rows: %s", s)
	}
}

func TestHistogramStats(t *testing.T) {
	var l Histogram
	if st := l.Stats(); st.Count != 0 {
		t.Error("empty histogram not empty")
	}
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	st := l.Stats()
	if st.Count != 100 {
		t.Errorf("count = %d", st.Count)
	}
	if st.Min != time.Millisecond || st.Max != 100*time.Millisecond {
		t.Errorf("min/max = %v/%v", st.Min, st.Max)
	}
	if st.P50 < 40*time.Millisecond || st.P50 > 60*time.Millisecond {
		t.Errorf("p50 = %v", st.P50)
	}
	if st.P99 < 95*time.Millisecond {
		t.Errorf("p99 = %v", st.P99)
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
}
