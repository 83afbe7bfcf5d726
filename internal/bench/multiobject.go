package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"selfstabsnap/internal/metrics"
	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/wire"
)

// Dispatch workload shape. Eight senders flood one receiver so the shard
// keyspace (sender ids) covers every worker at the widest grid point; each
// data message costs moService of modeled handler time, slept on the
// virtual clock, so the measured scaling is a property of the dispatch
// topology alone — not of the host's core count. (This matters doubly
// because CI machines may have a single core: real parallel speedup would
// be unmeasurable there, but virtual-clock sleeps on concurrent shard
// workers overlap regardless of GOMAXPROCS.) Every node hosts one or many
// objects over its one shared transport: with one object the scaling table
// measures sharded dispatch alone; with many it measures the multi-object
// claims — aggregate throughput across objects scales with the shard pool,
// and a saturated hot object cannot ruin a cold object's tail latency.
const (
	moSenders      = 8
	moService      = 50 * time.Microsecond
	moInterArrival = 20 * time.Microsecond

	// Isolation cell: cold traffic arrives at a modest per-sender pace
	// while (in the hot scenario) every sender simultaneously floods
	// object 0 far beyond service capacity.
	moColdInterArrival = 400 * time.Microsecond
	moHotInterArrival  = 10 * time.Microsecond
)

// moAlg is the per-object synthetic measurement algorithm: one instance is
// attached per (node, object) via node.Bind, so the receiver's object
// table, the per-object fair lanes and the (object, sender) shard hashing
// are all exercised exactly as a real multi-object deployment would.
// Counters are shared across one node's instances (the experiment reports
// per-node aggregates); the latency histogram is per instance group, which
// is how the isolation cell separates cold-object sojourn times from the
// hot object's.
type moAlg struct {
	rt      *node.ObjView
	clk     simclock.Clock
	hist    *metrics.Histogram
	handled *atomic.Int64 // node aggregate across objects
	cold    *atomic.Int64 // non-nil on cold objects: isolation completion counter
	lastNS  *atomic.Int64 // virtual completion time of the node's latest handle
}

func (a *moAlg) HandleMessage(m *wire.Message) {
	if m.Type != wire.TWrite {
		return
	}
	a.clk.Sleep(moService)
	now := a.clk.Now()
	a.hist.Observe(now.Sub(time.Unix(0, m.SSN)))
	ns := now.UnixNano()
	for {
		cur := a.lastNS.Load()
		if ns <= cur || a.lastNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	a.handled.Add(1)
	if a.cold != nil {
		a.cold.Add(1)
	}
	a.rt.Send(int(m.From), &wire.Message{Type: wire.TWriteAck, SSN: m.SSN})
}

func (a *moAlg) Tick() {}

// moNode builds one node hosting `objects` instances over a single shared
// runtime: object 0 through node.Bind's fresh-runtime path, the rest
// attached to it. hist selects each object's latency sink.
func moNode(v *simclock.Virtual, net netsim.Transport, id, objects, shards int,
	hist func(obj int) *metrics.Histogram, cold *atomic.Int64) ([]*moAlg, *node.Runtime) {
	shared := &struct {
		handled atomic.Int64
		lastNS  atomic.Int64
	}{}
	algs := make([]*moAlg, objects)
	var host *node.Runtime
	for o := 0; o < objects; o++ {
		a := &moAlg{
			clk:     v,
			hist:    hist(o),
			handled: &shared.handled,
			lastNS:  &shared.lastNS,
		}
		if o > 0 && cold != nil {
			a.cold = cold
		}
		opt := node.Options{
			LoopInterval:   time.Millisecond,
			RetxInterval:   3 * time.Millisecond,
			Clock:          v,
			DispatchShards: shards,
		}
		if o > 0 {
			opt.Attach = host
		}
		view := node.Bind(id, net, a, opt)
		a.rt = view
		if o == 0 {
			host = view.Runtime
		}
		algs[o] = a
	}
	host.Start()
	return algs, host
}

// moPoint is one measured scaling cell.
type moPoint struct {
	makespan time.Duration
	msgPerS  float64
	p999     time.Duration
}

// runMultiObject measures one (shards, objects, msgs-per-sender) scaling
// cell: every sender sprays its messages round-robin over all of node 0's
// objects, so the aggregate stream exercises objects×senders distinct
// (object, sender) shard keys. Virtual time makes every number an exact
// deterministic function of the configuration, so the regression guard can
// compare cells across builds with a tight tolerance.
func runMultiObject(senders, objects, msgs, shards int) moPoint {
	var out moPoint
	v := simclock.NewVirtual()
	v.Run("multiobject", func() {
		n := senders + 1
		net := netsim.New(netsim.Config{
			N: n, Seed: 4200, Clock: v,
			Adversary: netsim.Adversary{MinDelay: 50 * time.Microsecond, MaxDelay: 400 * time.Microsecond},
		})
		defer net.Close()

		agg := &metrics.Histogram{}
		recvAlgs, recvRT := moNode(v, net, 0, objects, shards, func(int) *metrics.Histogram { return agg }, nil)
		senderViews := make([][]*moAlg, n)
		rts := []*node.Runtime{recvRT}
		for s := 1; s <= senders; s++ {
			algs, rt := moNode(v, net, s, objects, shards, func(int) *metrics.Histogram { return &metrics.Histogram{} }, nil)
			senderViews[s] = algs
			rts = append(rts, rt)
		}
		defer func() {
			for _, rt := range rts {
				rt.Close()
			}
		}()

		t0 := v.Now()
		g := v.NewGroup()
		g.Add(senders)
		for s := 1; s <= senders; s++ {
			s := s
			v.Go(fmt.Sprintf("mo-sender%d", s), func() {
				defer g.Done()
				for i := 0; i < msgs; i++ {
					// Round-robin with a per-sender offset: objects see an
					// even aggregate mix without synchronized bursts.
					obj := (i + s) % objects
					senderViews[s][obj].rt.Send(0, &wire.Message{Type: wire.TWrite, SSN: v.Now().UnixNano()})
					v.Sleep(moInterArrival)
				}
			})
		}
		g.Wait()

		total := int64(senders * msgs)
		for recvAlgs[0].handled.Load() < total && v.Since(t0) < 30*time.Second {
			v.Sleep(100 * time.Microsecond)
		}
		done := recvAlgs[0].handled.Load()
		out.makespan = time.Duration(recvAlgs[0].lastNS.Load() - t0.UnixNano())
		if out.makespan > 0 {
			out.msgPerS = float64(done) / out.makespan.Seconds()
		}
		out.p999 = agg.Snapshot().QuantilePermille(999)
	})
	return out
}

// runMultiObjectIsolation measures cold-object tail latency with and
// without a saturated hot object sharing the node: every sender trickles
// coldMsgs messages to one cold object, and in the hot scenario
// additionally floods object 0 at ~40× service capacity. The per-object
// fair lanes bound how far the hot backlog can push a cold message back —
// one hot message per round-robin turn — so cold p99 must stay within a
// small factor of the quiet baseline.
func runMultiObjectIsolation(objects, coldMsgs, hotMsgs, shards int) (p99 time.Duration, coldDone int64) {
	v := simclock.NewVirtual()
	v.Run("multiobject-iso", func() {
		n := moSenders + 1
		net := netsim.New(netsim.Config{
			N: n, Seed: 4201, Clock: v,
			Adversary: netsim.Adversary{MinDelay: 50 * time.Microsecond, MaxDelay: 400 * time.Microsecond},
		})
		defer net.Close()

		coldHist, hotHist := &metrics.Histogram{}, &metrics.Histogram{}
		var cold atomic.Int64
		pick := func(o int) *metrics.Histogram {
			if o == 0 {
				return hotHist
			}
			return coldHist
		}
		_, recvRT := moNode(v, net, 0, objects, shards, pick, &cold)
		senderViews := make([][]*moAlg, n)
		rts := []*node.Runtime{recvRT}
		for s := 1; s <= moSenders; s++ {
			algs, rt := moNode(v, net, s, objects, shards, func(int) *metrics.Histogram { return &metrics.Histogram{} }, nil)
			senderViews[s] = algs
			rts = append(rts, rt)
		}
		defer func() {
			for _, rt := range rts {
				rt.Close()
			}
		}()

		t0 := v.Now()
		g := v.NewGroup()
		for s := 1; s <= moSenders; s++ {
			s := s
			coldObj := 1 + (s-1)%(objects-1)
			g.Add(1)
			v.Go(fmt.Sprintf("mo-cold%d", s), func() {
				defer g.Done()
				for i := 0; i < coldMsgs; i++ {
					senderViews[s][coldObj].rt.Send(0, &wire.Message{Type: wire.TWrite, SSN: v.Now().UnixNano()})
					v.Sleep(moColdInterArrival)
				}
			})
			if hotMsgs > 0 {
				g.Add(1)
				v.Go(fmt.Sprintf("mo-hot%d", s), func() {
					defer g.Done()
					for i := 0; i < hotMsgs; i++ {
						senderViews[s][0].rt.Send(0, &wire.Message{Type: wire.TWrite, SSN: v.Now().UnixNano()})
						v.Sleep(moHotInterArrival)
					}
				})
			}
		}
		g.Wait()

		want := int64(moSenders * coldMsgs)
		for cold.Load() < want && v.Since(t0) < 30*time.Second {
			v.Sleep(100 * time.Microsecond)
		}
		p99 = coldHist.Snapshot().QuantilePermille(990)
		coldDone = cold.Load()
	})
	return p99, coldDone
}

// RunMultiObject measures sharded multi-object dispatch: one table sweeps
// shard counts for a single object and for a 64-object mix (with the
// per-message handler cost serialized on one dispatcher, throughput is
// 1/moService; k shard workers overlap k handlers, so it scales ≈k× and
// the p99.9 sojourn time collapses with the backlog), and one contrasts
// cold-object p99 with and without a saturated hot neighbour (the
// per-object fair lanes must keep the degradation small). The committed
// BENCH_multiobject.json is the baseline TestMultiObjectRegressionGuard
// compares against.
func RunMultiObject(p Params) []*Table {
	scaling := &Table{
		ID:      "multiobject-scaling",
		Title:   "sharded dispatch: aggregate throughput vs shard count, one object and a 64-object mix",
		Headers: []string{"shards", "objects", "senders", "msgs/sender", "makespan", "msg/s", "p99.9", "speedup"},
	}
	mixes, msgs := []int{1, 64}, 300
	grid := []int{1, 2, 4, 8}
	if p.Quick {
		mixes, msgs = []int{1, 16}, 100
		grid = []int{1, 4}
	}
	for _, objects := range mixes {
		var base float64
		for _, shards := range grid {
			r := runMultiObject(moSenders, objects, msgs, shards)
			if base == 0 {
				base = r.msgPerS
			}
			scaling.AddRow(fmt.Sprint(shards), fmt.Sprint(objects), fmt.Sprint(moSenders), fmt.Sprint(msgs),
				d2(r.makespan), f1(r.msgPerS), d2(r.p999), f1(r.msgPerS/base)+"x")
		}
	}
	scaling.AddNote("virtual clock: %v of modeled handler time per message, so scaling is machine-independent and deterministic per build; all objects multiplex one transport and one shard pool per node", moService)
	scaling.AddNote("every message, acks included, shards by (object, sender); acks cost no modeled handler time, and 64 objects × 8 senders cover any pool width")
	scaling.AddNote("objects=1 with shards=1 is the default two-goroutine topology: every message is handled inline on the receive loop")

	iso := &Table{
		ID:      "multiobject-isolation",
		Title:   "hot-object isolation: cold-object p99 with and without a saturated neighbour",
		Headers: []string{"scenario", "objects", "shards", "cold ops", "cold p99", "degradation"},
	}
	isoObjects, coldMsgs, hotMsgs := 16, 100, 800
	if p.Quick {
		isoObjects, coldMsgs, hotMsgs = 8, 60, 400
	}
	quietP99, quietOps := runMultiObjectIsolation(isoObjects, coldMsgs, 0, 4)
	hotP99, hotOps := runMultiObjectIsolation(isoObjects, coldMsgs, hotMsgs, 4)
	degr := float64(hotP99) / float64(quietP99)
	iso.AddRow("quiet", fmt.Sprint(isoObjects), "4", fmt.Sprint(quietOps), d2(quietP99), "1.0x")
	iso.AddRow("hot object 0 saturated", fmt.Sprint(isoObjects), "4", fmt.Sprint(hotOps), d2(hotP99), f1(degr)+"x")
	iso.AddNote("hot scenario: every sender floods object 0 at ~%d%% of one worker's service capacity on top of the cold trickle", int(100*float64(moService)/float64(moHotInterArrival)*float64(moSenders)))
	iso.AddNote("per-object fair lanes bound the interference: a cold message waits at most one hot message per backlogged object per round-robin turn, never the hot queue depth")
	return []*Table{scaling, iso}
}
