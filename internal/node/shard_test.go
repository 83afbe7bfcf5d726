package node

import (
	"sync"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// shardAlg is an echo algorithm: it answers TWrite with a TWriteAck and
// records, per sender, the SSN sequence in arrival order so tests can
// assert per-sender FIFO.
type shardAlg struct {
	rt *Runtime

	mu     sync.Mutex
	bySrc  map[int32][]int64
	totals int
}

func newShardAlg() *shardAlg { return &shardAlg{bySrc: make(map[int32][]int64)} }

func (a *shardAlg) HandleMessage(m *wire.Message) {
	a.mu.Lock()
	a.bySrc[m.From] = append(a.bySrc[m.From], m.SSN)
	a.totals++
	a.mu.Unlock()
	if m.Type == wire.TWrite {
		a.rt.Send(int(m.From), &wire.Message{Type: wire.TWriteAck, SSN: m.SSN})
	}
}

func (a *shardAlg) Tick() {}

func (a *shardAlg) total() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.totals
}

// newShardCluster builds n sharded echo nodes over a loss-free network.
func newShardCluster(t *testing.T, n, shards int) ([]*shardAlg, []*Runtime) {
	t.Helper()
	net := netsim.New(netsim.Config{N: n, Seed: 42})
	algs := make([]*shardAlg, n)
	rts := make([]*Runtime, n)
	for i := 0; i < n; i++ {
		algs[i] = newShardAlg()
		opts := fastOpts()
		opts.DispatchShards = shards
		rts[i] = NewRuntime(i, net, algs[i], opts)
		algs[i].rt = rts[i]
		rts[i].Start()
	}
	t.Cleanup(func() {
		for _, rt := range rts {
			rt.Close()
		}
		net.Close()
	})
	return algs, rts
}

func TestShardedOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.DispatchShards != 1 || shardQueueCap != 4096 {
		t.Errorf("defaults = shards %d, cap %d; want 1, 4096", o.DispatchShards, shardQueueCap)
	}
	o = Options{DispatchShards: 1 << 20}.withDefaults()
	if o.DispatchShards != MaxDispatchShards {
		t.Errorf("shards not capped: %d", o.DispatchShards)
	}
}

func TestShardedAccessors(t *testing.T) {
	_, rts := newShardCluster(t, 3, 4)
	if got := rts[0].DispatchShards(); got != 4 {
		t.Errorf("DispatchShards = %d, want 4", got)
	}
	if depths := rts[0].DispatchDepths(); len(depths) != 4 {
		t.Errorf("DispatchDepths lanes = %d, want 4", len(depths))
	}

	// Unsharded runtimes report the classic topology.
	net := netsim.New(netsim.Config{N: 1, Seed: 1})
	defer net.Close()
	rt := NewRuntime(0, net, newShardAlg(), fastOpts())
	if rt.DispatchShards() != 1 {
		t.Errorf("unsharded DispatchShards = %d", rt.DispatchShards())
	}
	if rt.DispatchDepths() != nil {
		t.Error("unsharded DispatchDepths must be empty")
	}
}

// TestShardedCallReachesQuorum drives the full quorum path — broadcast,
// sharded server handling, ack matching on the sender's shard — across
// every shard count worth distinguishing.
func TestShardedCallReachesQuorum(t *testing.T) {
	for _, shards := range []int{2, 4, 7} {
		_, rts := newShardCluster(t, 5, shards)
		for op := int64(1); op <= 3; op++ {
			recs, err := rts[0].Call(CallOpts{
				Build:  func() *wire.Message { return &wire.Message{Type: wire.TWrite, SSN: op} },
				Accept: func(m *wire.Message) bool { return m.Type == wire.TWriteAck && m.SSN == op },
			})
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			if len(recs) < 3 {
				t.Errorf("shards=%d: %d acks, want ≥3", shards, len(recs))
			}
			seen := map[int32]bool{}
			for _, m := range recs {
				if seen[m.From] {
					t.Errorf("shards=%d: duplicate sender in Rec set", shards)
				}
				seen[m.From] = true
			}
		}
	}
}

// TestShardedPerSenderFIFO floods one receiver from several concurrent
// senders and asserts each sender's stream is delivered in send order —
// the §2 discipline sharded dispatch must preserve (register k is written
// only by node k, so per-sender FIFO is per-register FIFO).
func TestShardedPerSenderFIFO(t *testing.T) {
	const n, msgs = 5, 200
	algs, rts := newShardCluster(t, n, 4)
	var wg sync.WaitGroup
	for s := 1; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := int64(0); i < msgs; i++ {
				rts[s].Send(0, &wire.Message{Type: wire.TGossip, SSN: i})
			}
		}(s)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for algs[0].total() < (n-1)*msgs && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	algs[0].mu.Lock()
	defer algs[0].mu.Unlock()
	for src, ssns := range algs[0].bySrc {
		if len(ssns) != msgs {
			t.Fatalf("sender %d: delivered %d/%d (loss-free net must not drop)", src, len(ssns), msgs)
		}
		for i, got := range ssns {
			if got != int64(i) {
				t.Fatalf("sender %d: position %d got SSN %d — per-sender FIFO violated", src, i, got)
			}
		}
	}
}

// TestShardedCrashLosesMessages pins the crash semantics under sharding:
// a crashed node takes no steps, and messages arriving while crashed are
// lost even when they were already queued on a shard lane.
func TestShardedCrashLosesMessages(t *testing.T) {
	algs, rts := newShardCluster(t, 3, 4)
	rts[1].Crash()
	if !rts[1].Crashed() {
		t.Fatal("not crashed")
	}
	before := algs[1].total()
	rts[0].Send(1, &wire.Message{Type: wire.TGossip, SSN: 99})
	time.Sleep(20 * time.Millisecond)
	if got := algs[1].total(); got != before {
		t.Errorf("crashed node handled %d messages", got-before)
	}
	rts[1].Resume()
	rts[0].Send(1, &wire.Message{Type: wire.TGossip, SSN: 100})
	deadline := time.Now().Add(2 * time.Second)
	for algs[1].total() == before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if algs[1].total() == before {
		t.Error("resumed node handles no messages")
	}
}

// TestShardedVirtualDeterministic runs a sharded cluster on the virtual
// clock twice with the same seed and asserts identical delivery traces —
// the property the chaos determinism suite relies on at DispatchShards>1:
// shard workers are ordinary scheduler tasks, so a fixed (seed, shards)
// configuration replays identically.
func TestShardedVirtualDeterministic(t *testing.T) {
	run := func() map[int32][]int64 {
		var out map[int32][]int64
		v := simclock.NewVirtual()
		v.Run("sharded-deterministic", func() {
			net := netsim.New(netsim.Config{N: 4, Seed: 7, Clock: v,
				Adversary: netsim.Adversary{MinDelay: 100 * time.Microsecond, MaxDelay: 900 * time.Microsecond}})
			defer net.Close()
			algs := make([]*shardAlg, 4)
			rts := make([]*Runtime, 4)
			for i := range rts {
				algs[i] = newShardAlg()
				opts := fastOpts()
				opts.Clock = v
				opts.DispatchShards = 4
				rts[i] = NewRuntime(i, net, algs[i], opts)
				algs[i].rt = rts[i]
				rts[i].Start()
			}
			defer func() {
				for _, rt := range rts {
					rt.Close()
				}
			}()
			for i := int64(0); i < 50; i++ {
				rts[int(i)%4].Broadcast(&wire.Message{Type: wire.TGossip, SSN: i})
				v.Sleep(200 * time.Microsecond)
			}
			v.Sleep(20 * time.Millisecond)
			algs[0].mu.Lock()
			out = make(map[int32][]int64, len(algs[0].bySrc))
			for src, ssns := range algs[0].bySrc {
				out[src] = append([]int64(nil), ssns...)
			}
			algs[0].mu.Unlock()
		})
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace shape differs: %d vs %d senders", len(a), len(b))
	}
	for src, sa := range a {
		sb := b[src]
		if len(sa) != len(sb) {
			t.Fatalf("sender %d: %d vs %d deliveries", src, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("sender %d position %d: %d vs %d", src, i, sa[i], sb[i])
			}
		}
	}
}
