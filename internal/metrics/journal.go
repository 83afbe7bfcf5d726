package metrics

import (
	"sync"
	"time"
)

// DefaultJournalCap is the ring capacity NewJournal uses for n <= 0.
const DefaultJournalCap = 256

// JournalEvent is one recorded occurrence of something rare enough to be
// worth remembering individually: a self-stabilization repair, a
// detectable restart, a global reset, an injected transient fault.
type JournalEvent struct {
	At     time.Time `json:"at"`
	Node   int       `json:"node"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail,omitempty"`
}

// Journal is a bounded ring of events with per-kind counters. When the
// ring is full the oldest event is dropped and the drop is counted, so a
// journal attached to a long-running node costs O(capacity) memory while
// the counters still reflect every event ever recorded. A nil *Journal is
// a valid no-op sink; all methods are safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	ring    []JournalEvent
	next    int // write position; oldest entry when the ring is full
	full    bool
	total   int64
	counts  map[string]int64
	maxSize int
}

// NewJournal returns a journal retaining the newest `capacity` events
// (DefaultJournalCap when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{ring: make([]JournalEvent, 0, capacity), counts: make(map[string]int64), maxSize: capacity}
}

// Record appends one event, dropping the oldest if the ring is full.
// No-op on a nil journal, so instrumented code needs no guards.
func (j *Journal) Record(at time.Time, node int, kind, detail string) {
	if j == nil {
		return
	}
	e := JournalEvent{At: at, Node: node, Kind: kind, Detail: detail}
	j.mu.Lock()
	j.total++
	j.counts[kind]++
	if len(j.ring) < j.maxSize {
		j.ring = append(j.ring, e)
	} else {
		j.ring[j.next] = e
		j.next = (j.next + 1) % j.maxSize
		j.full = true
	}
	j.mu.Unlock()
}

// Events returns the retained events, oldest first. Nil journal → nil.
func (j *Journal) Events() []JournalEvent {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]JournalEvent, 0, len(j.ring))
	if j.full {
		out = append(out, j.ring[j.next:]...)
		out = append(out, j.ring[:j.next]...)
	} else {
		out = append(out, j.ring...)
	}
	return out
}

// Counts returns a copy of the per-kind event counters, which cover every
// event ever recorded (including dropped ones). Nil journal → nil.
func (j *Journal) Counts() map[string]int64 {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]int64, len(j.counts))
	for k, v := range j.counts {
		out[k] = v
	}
	return out
}

// Total returns the number of events ever recorded.
func (j *Journal) Total() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Dropped returns how many events fell off the ring.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total - int64(len(j.ring))
}
