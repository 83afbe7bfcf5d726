package bounded

import (
	"fmt"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// TestEpochFencingBlocksStaleIndices is the §5 safety property the epoch
// fence exists for: after a global reset has collapsed the indices, a
// stale pre-reset message carrying a huge timestamp must NOT re-poison any
// node's state.
func TestEpochFencingBlocksStaleIndices(t *testing.T) {
	const maxInt = 16
	net := netsim.New(netsim.Config{N: 3, Seed: 8})
	nodes := make([]*Node, 3)
	for i := 0; i < 3; i++ {
		nodes[i] = New(i, net, Config{MaxInt: maxInt, Runtime: fastOpts()})
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
		net.Close()
	}()

	// Drive one wraparound.
	for i := 0; i < maxInt; i++ {
		if err := nodes[0].Write(types.Value(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for nodes[1].Epoch() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("reset never completed")
		}
		time.Sleep(time.Millisecond)
	}

	// Forge a "delayed" pre-reset WRITE (epoch 0) carrying enormous
	// timestamps and inject it straight into node 1's inbox, bypassing the
	// sending-side stamping.
	evil := &wire.Message{
		Type:  wire.TWrite,
		Epoch: 0,
		Reg: types.RegVector{
			{TS: 1 << 40, Val: types.Value("poison")},
			{TS: 1 << 40, Val: types.Value("poison")},
			{TS: 1 << 40, Val: types.Value("poison")},
		},
	}
	net.Send(0, 1, evil)
	time.Sleep(20 * time.Millisecond)

	if got := nodes[1].Inner().MaxIndex(); got >= maxInt {
		t.Fatalf("stale-epoch message poisoned the state: MaxIndex=%d", got)
	}
	snap, err := nodes[1].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range snap {
		if string(e.Val) == "poison" {
			t.Fatalf("poisoned value surfaced at register %d", k)
		}
	}

	// A current-epoch message, by contrast, is processed normally.
	if err := nodes[2].Write(types.Value("legit")); err != nil {
		t.Fatal(err)
	}
	snap, err = nodes[1].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap[2].Val) != "legit" {
		t.Fatalf("current-epoch traffic over-fenced: %v", snap)
	}
}

// TestResetStatsAccessors covers the inspection surface.
func TestResetStatsAccessors(t *testing.T) {
	net := netsim.New(netsim.Config{N: 3, Seed: 9})
	nd := New(0, net, Config{Runtime: fastOpts()})
	nd.Start()
	defer func() {
		nd.Close()
		net.Close()
	}()
	if nd.Epoch() != 0 || nd.Resets() != 0 || nd.DeferredOps() != 0 || nd.AbortedOps() != 0 {
		t.Error("fresh node has nonzero stats")
	}
	if nd.ResetActive() {
		t.Error("fresh node mid-reset")
	}
	if nd.Runtime() == nil || nd.Inner() == nil {
		t.Error("nil accessors")
	}
}

// TestHostileResetFrameIsMetered wires the reset plane's one reject count
// end to end: a MAXIDX frame with a short register vector, delivered to a
// bounded node through its transport, is rejected by the reset engine and
// must raise the transport's ResetRejects by exactly one.
func TestHostileResetFrameIsMetered(t *testing.T) {
	const n = 3
	v := simclock.NewVirtual()
	v.Run("reset-reject-metering", func() {
		net := netsim.New(netsim.Config{N: n, Seed: 11, Clock: v})
		opts := fastOpts()
		opts.Clock = v
		nodes := make([]*Node, n)
		for i := range nodes {
			nodes[i] = New(i, net, Config{Runtime: opts})
			nodes[i].Start()
		}
		defer func() {
			for _, nd := range nodes {
				nd.Close()
			}
			net.Close()
		}()
		v.Sleep(10 * time.Millisecond)
		before := net.Counters().ResetRejects()
		net.Send(0, 1, &wire.Message{Type: wire.TMaxIdx, TS: 1, Reg: make(types.RegVector, n-1)})
		v.Sleep(10 * time.Millisecond)
		if got := net.Counters().ResetRejects() - before; got != 1 {
			t.Errorf("ResetRejects rose by %d after one hostile MAXIDX frame, want 1", got)
		}
		if nodes[1].ResetActive() {
			t.Error("hostile frame started a reset")
		}
	})
}

// TestDefaultMaxInt: without an explicit threshold the production default
// applies and ordinary workloads never trigger a reset.
func TestDefaultMaxInt(t *testing.T) {
	net := netsim.New(netsim.Config{N: 3, Seed: 10})
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = New(i, net, Config{Runtime: fastOpts()})
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
		net.Close()
	}()
	for i := 0; i < 50; i++ {
		if err := nodes[0].Write(types.Value("x")); err != nil {
			t.Fatal(err)
		}
	}
	if nodes[0].Resets() != 0 || nodes[0].ResetActive() {
		t.Error("default threshold triggered a reset on a tiny workload")
	}
}

// TestSendManyObeysFence pins the fan-out half of the fence: SendMany must
// suppress, stamp and pass through exactly like a Send loop. The embedded
// transport's own SendMany would otherwise be promoted and bypass it.
func TestSendManyObeysFence(t *testing.T) {
	to := []int{0, 1, 2}
	paths := map[string]func(f *fencedTransport, m *wire.Message){
		"Send": func(f *fencedTransport, m *wire.Message) {
			for _, k := range to {
				f.Send(0, k, m)
			}
		},
		"SendMany": func(f *fencedTransport, m *wire.Message) { f.SendMany(0, to, m) },
	}
	for name, send := range paths {
		t.Run(name, func(t *testing.T) {
			net := netsim.New(netsim.Config{N: len(to), Seed: 11})
			defer net.Close()
			b := newShell(0, net, Config{})
			// delivered sends m (carrying a stale epoch) and returns the
			// epoch of every copy that reached a recipient.
			delivered := func(typ wire.Type) []int64 {
				send(b.ft, &wire.Message{Type: typ, Epoch: 41})
				var got []int64
				for _, k := range to {
					for net.QueueLen(k) > 0 {
						m, _ := net.Recv(k)
						got = append(got, m.Epoch)
					}
				}
				return got
			}
			want := func(typ wire.Type, epoch int64) {
				t.Helper()
				got := delivered(typ)
				if len(got) != len(to) {
					t.Fatalf("%v: %d copies delivered, want %d", typ, len(got), len(to))
				}
				for _, e := range got {
					if e != epoch {
						t.Fatalf("%v: delivered epoch %d, want %d", typ, e, epoch)
					}
				}
			}

			cur := b.eng.Epoch()
			want(wire.TWrite, cur) // not frozen: requests flow, stamped

			b.eng.Trigger()
			b.syncGate()
			if !b.frozen() {
				t.Fatal("node not frozen after trigger")
			}
			for _, typ := range []wire.Type{wire.TWrite, wire.TSnapshot, wire.TGossip, wire.TSave} {
				if got := delivered(typ); len(got) != 0 {
					t.Errorf("%v: %d copies escaped the frozen fence", typ, len(got))
				}
			}
			want(wire.TWriteAck, cur) // acks still flow, stamped
			want(wire.TMaxIdx, 41)    // reset plane passes through unstamped
		})
	}
}
