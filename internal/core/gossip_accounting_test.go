package core

import (
	"fmt"
	"testing"
	"time"

	"selfstabsnap/internal/node"
	"selfstabsnap/internal/simclock"
	"selfstabsnap/internal/types"
	"selfstabsnap/internal/wire"
)

// TestGossipByteAccountingReconciles is the delta-gossip audit for the
// simulated transport: every gossip message the algorithms build is
// classified (full fallback or delta) in the node's AckTable with
// m.Size() at build time, and the transport meters the same messages on
// the send path — so after the cluster quiesces the AckStats summed over
// every node must agree with the transport to the byte.
// A SendMany double-count, a missed per-peer build, or a classification
// recorded for a message that was never sent would all break the equality.
func TestGossipByteAccountingReconciles(t *testing.T) {
	for _, alg := range []Algorithm{NonBlockingSS, DeltaSS} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			v := simclock.NewVirtual()
			v.Run("gossip-accounting", func() {
				cluster, err := NewCluster(Config{
					N: 4, Algorithm: alg, Delta: 2, Seed: 11,
					LoopInterval: time.Millisecond,
					RetxInterval: 3 * time.Millisecond,
					Clock:        v,
				})
				if err != nil {
					t.Error(err)
					return
				}
				closed := false
				defer func() {
					if !closed {
						cluster.Close()
					}
				}()

				for i := 0; i < cluster.N(); i++ {
					if err := cluster.Write(i, types.Value(fmt.Sprintf("acct%d", i))); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := cluster.Snapshot(0); err != nil {
					t.Error(err)
					return
				}
				// Idle long enough to cross several staleness windows, so the
				// run contains all three regimes: full (cold tables), delta
				// (fresh acks, advancing state) and suppressed (steady state).
				v.Sleep(60 * time.Millisecond)

				// Quiesce before reading: a tick in flight could have built
				// (and classified) a message not yet metered by the transport.
				closed = true
				cluster.Close()

				c := cluster.Counters()
				snap := totalAckStats(cluster)
				if gotB, wantB := c.Bytes(wire.TGossip), snap.FullBytes+snap.DeltaBytes; gotB != wantB {
					t.Errorf("transport metered %d gossip bytes, algorithms recorded %d (full %d + delta %d)",
						gotB, wantB, snap.FullBytes, snap.DeltaBytes)
				}
				if gotN, wantN := c.Messages(wire.TGossip), snap.Full+snap.Delta; gotN != wantN {
					t.Errorf("transport metered %d gossip messages, algorithms recorded %d (full %d + delta %d)",
						gotN, wantN, snap.Full, snap.Delta)
				}
				if snap.Suppressed == 0 {
					t.Error("idle cluster never suppressed a gossip send; delta mode is not engaging")
				}
			})
		})
	}
}

// TestGossipAccountingFullGossipMode: with delta gossip disabled the
// algorithm-side classification is never recorded, and the transport still
// meters every full-vector send — the counters stay strictly zero so a
// dashboard can tell the modes apart.
func TestGossipAccountingFullGossipMode(t *testing.T) {
	v := simclock.NewVirtual()
	v.Run("gossip-accounting-full", func() {
		cluster, err := NewCluster(Config{
			N: 4, Algorithm: NonBlockingSS, Seed: 12, FullGossip: true,
			LoopInterval: time.Millisecond,
			RetxInterval: 3 * time.Millisecond,
			Clock:        v,
		})
		if err != nil {
			t.Error(err)
			return
		}
		closed := false
		defer func() {
			if !closed {
				cluster.Close()
			}
		}()
		if err := cluster.Write(0, types.Value("full")); err != nil {
			t.Error(err)
			return
		}
		v.Sleep(20 * time.Millisecond)
		closed = true
		cluster.Close()

		c := cluster.Counters()
		if snap := totalAckStats(cluster); snap != (node.AckStats{}) {
			t.Errorf("full-gossip mode recorded delta-gossip counters: %+v", snap)
		}
		if c.Bytes(wire.TGossip) == 0 {
			t.Error("no gossip traffic at all in full-gossip mode")
		}
		if c.Bytes(wire.TGossipAck) != 0 {
			t.Error("full-gossip mode sent GOSSIPacks")
		}
	})
}

// totalAckStats sums every node's gossip-mode tallies.
func totalAckStats(c *Cluster) node.AckStats {
	var sum node.AckStats
	for i := 0; i < c.N(); i++ {
		sum = sum.Add(c.AckStats(i))
	}
	return sum
}
