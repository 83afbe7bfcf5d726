package node_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"selfstabsnap/internal/netsim"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/wire"
)

// dispatchCountAlg counts deliveries.
type dispatchCountAlg struct {
	handled atomic.Int64
}

func (a *dispatchCountAlg) HandleMessage(*wire.Message) { a.handled.Add(1) }
func (a *dispatchCountAlg) Tick()                       {}

// BenchmarkDispatch is the real-clock companion to the virtual-clock
// "multiobject" experiment (internal/bench): four senders flood one receiver
// end-to-end through netsim, and ns/op is the per-message dispatch cost —
// receive, route, shard-queue hop, handler. It exposes the routing+queue
// overhead sharding adds per message; the throughput-scaling claim itself
// is made by the virtual-clock experiment, whose modeled handler cost is
// independent of the benchmark host's core count. Flow control caps
// in-flight messages well under the bounded-queue capacities so drop-oldest
// never fires and every sent message is eventually counted.
func BenchmarkDispatch(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const n = 5
			net := netsim.New(netsim.Config{N: n, Seed: 1})
			defer net.Close()
			recv := &dispatchCountAlg{}
			rts := make([]*node.Runtime, n)
			for i := 0; i < n; i++ {
				alg := node.Algorithm(&dispatchCountAlg{})
				if i == 0 {
					alg = recv
				}
				rts[i] = node.NewRuntime(i, net, alg, node.Options{DispatchShards: shards})
				rts[i].Start()
				defer rts[i].Close()
			}
			m := &wire.Message{Type: wire.TGossip, SSN: 7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for int64(i)-recv.handled.Load() > 2048 {
					time.Sleep(10 * time.Microsecond)
				}
				rts[1+i%(n-1)].Send(0, m)
			}
			for recv.handled.Load() < int64(b.N) {
				time.Sleep(10 * time.Microsecond)
			}
		})
	}
}
