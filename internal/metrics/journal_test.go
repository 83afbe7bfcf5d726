package metrics

import (
	"testing"
	"time"
)

func TestJournalRingDropsOldest(t *testing.T) {
	j := NewJournal(3)
	t0 := time.Unix(0, 0)
	for i := 0; i < 5; i++ {
		j.Record(t0.Add(time.Duration(i)*time.Second), 0, "reset", "")
	}
	evs := j.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if want := t0.Add(time.Duration(i+2) * time.Second); !e.At.Equal(want) {
			t.Errorf("event %d at %v, want %v (oldest first, newest retained)", i, e.At, want)
		}
	}
	if j.Total() != 5 || j.Dropped() != 2 {
		t.Errorf("total=%d dropped=%d, want 5/2", j.Total(), j.Dropped())
	}
	if j.Counts()["reset"] != 5 {
		t.Errorf("counts must cover dropped events: %v", j.Counts())
	}
}

func TestJournalPartialRing(t *testing.T) {
	j := NewJournal(10)
	j.Record(time.Unix(1, 0), 2, "ts-repair", "ts 3 → 9")
	j.Record(time.Unix(2, 0), 1, "transient-fault", "")
	evs := j.Events()
	if len(evs) != 2 || evs[0].Kind != "ts-repair" || evs[1].Node != 1 {
		t.Fatalf("events = %+v", evs)
	}
	if j.Dropped() != 0 {
		t.Errorf("dropped = %d", j.Dropped())
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(time.Now(), 0, "x", "") // must not panic
	if j.Events() != nil || j.Counts() != nil || j.Total() != 0 || j.Dropped() != 0 {
		t.Error("nil journal must be an empty no-op sink")
	}
}

func TestJournalDefaultCapacity(t *testing.T) {
	j := NewJournal(0)
	for i := 0; i < DefaultJournalCap+10; i++ {
		j.Record(time.Unix(int64(i), 0), 0, "e", "")
	}
	if got := len(j.Events()); got != DefaultJournalCap {
		t.Errorf("retained %d, want %d", got, DefaultJournalCap)
	}
}
