package tcpnet

import (
	"fmt"
	"testing"
	"time"

	"selfstabsnap/internal/deltasnap"
	"selfstabsnap/internal/node"
	"selfstabsnap/internal/nonblocking"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// TestGossipByteAccountingReconcilesOverTCP mirrors the simulator-side
// audit on real sockets: each node's transport counters meter its own
// gossip sends (loopback via Size(), socket sends via frame length, fan-out
// via RecordSendMany), and the algorithm classifies the same messages at
// build time into its AckTable — so per node, transport bytes and the
// node's AckStats must reconcile exactly. The fixed-width codec makes
// len(frame)-4 equal m.Size() regardless of From/To stamping, which is
// what lets the equality be exact rather than approximate.
func TestGossipByteAccountingReconcilesOverTCP(t *testing.T) {
	const n = 3
	type gossipNode interface {
		Write(types.Value) error
		Close()
		AckStats() node.AckStats
	}
	run := func(t *testing.T, start func(mesh *Mesh, i int) gossipNode) {
		mesh, err := NewMesh(n)
		if err != nil {
			t.Fatal(err)
		}
		defer mesh.Close()
		nodes := make([]gossipNode, n)
		for i := range nodes {
			nodes[i] = start(mesh, i)
		}
		for i, nd := range nodes {
			if err := nd.Write(types.Value(fmt.Sprintf("tcp-acct-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		// Let several gossip rounds (and at least one staleness window)
		// elapse so full, delta and suppressed sends all occur.
		time.Sleep(300 * time.Millisecond)
		// Quiesce the algorithms before reading: no tick may be mid-build.
		for _, nd := range nodes {
			nd.Close()
		}

		for i, nd := range nodes {
			c := mesh.Transports[i].Counters()
			snap := nd.AckStats()
			if gotB, wantB := c.Bytes(wire.TGossip), snap.FullBytes+snap.DeltaBytes; gotB != wantB {
				t.Errorf("node %d: transport metered %d gossip bytes, algorithm recorded %d (full %d + delta %d)",
					i, gotB, wantB, snap.FullBytes, snap.DeltaBytes)
			}
			if gotN, wantN := c.Messages(wire.TGossip), snap.Full+snap.Delta; gotN != wantN {
				t.Errorf("node %d: transport metered %d gossip messages, algorithm recorded %d",
					i, gotN, wantN)
			}
		}
	}

	t.Run("nonblocking", func(t *testing.T) {
		run(t, func(mesh *Mesh, i int) gossipNode {
			nd := nonblocking.New(i, mesh.Transports[i], nonblocking.Config{
				SelfStabilizing: true, Runtime: tcpOpts(),
			})
			nd.Start()
			return nd
		})
	})
	t.Run("deltasnap", func(t *testing.T) {
		run(t, func(mesh *Mesh, i int) gossipNode {
			nd := deltasnap.New(i, mesh.Transports[i], deltasnap.Config{Delta: 2, Runtime: tcpOpts()})
			nd.Start()
			return nd
		})
	})
}
