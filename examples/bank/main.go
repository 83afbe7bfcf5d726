// Bank: a checkpoint/restore workload over the snapshot object, driven
// through the chaos harness's hostile-topology nemeses. Every node holds a
// balance of "bitcakes", transfers to random peers, and journals its
// cumulative ledger into its SWMR register; snapshots double as
// checkpoints. The harness throws an asymmetric WAN link matrix, flapping
// partitions, slow-but-alive nodes, crashes and skewed detectable restarts
// at the cluster; after every restart a node rebuilds its ledger from the
// latest checkpoint. The run then verifies an invariant the register-level
// checker cannot express: every snapshot anyone ever returned must be a
// consistent, conserving cut — no transfer received before it was sent and
// not one bitcake minted or destroyed.
//
//	go run ./examples/bank
//	go run ./examples/bank -alg ss-nonblocking -seed 3 -duration 1s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"selfstabsnap/internal/chaos"
	"selfstabsnap/internal/core"
)

func main() {
	var (
		algName  = flag.String("alg", "ss-delta", "ss-delta or ss-nonblocking (the algorithms with restart recovery)")
		n        = flag.Int("n", 5, "cluster size")
		seed     = flag.Int64("seed", 1, "simulation seed (same seed → same run, bit for bit)")
		duration = flag.Duration("duration", 600*time.Millisecond, "virtual workload duration")
		initial  = flag.Int64("initial", 1000, "starting bitcake balance per node")
	)
	flag.Parse()

	alg := core.DeltaSS
	switch *algName {
	case "ss-delta":
	case "ss-nonblocking":
		alg = core.NonBlockingSS
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algName)
		os.Exit(2)
	}

	cfg := chaos.Config{
		N: *n, Algorithm: alg, Delta: 2, Seed: *seed,
		// Three latency regions, 1ms cross-region delays, 5% cross-region
		// loss — an asymmetric WAN the uniform adversary cannot model.
		WAN: &chaos.WANSpec{Regions: 3, Cross: time.Millisecond, DropProb: 0.05},
		// Two nodes on a periodic cut/heal train.
		Flapping: &chaos.FlappingSpec{Count: 2, Period: 150 * time.Millisecond, Duty: 0.1},
		// Slow-but-alive windows, crashes, and detectable restarts with
		// recovery — each restart forces a checkpoint restore.
		SlowNodeRate: 4, SlowNodeFactor: 4,
		CrashRate: 4, SkewedRestartRate: 8,
		Bank:     &chaos.BankSpec{Initial: *initial},
		Duration: *duration,
		Virtual:  true,
		Hash:     true,
	}

	fmt.Printf("bank of %d nodes × %d bitcakes under the hostile-topology mix (%s, seed %d)\n\n",
		*n, *initial, alg, *seed)
	res, err := chaos.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	if res.Violation != nil {
		fmt.Printf("\nINVARIANT VIOLATED: %v\n", res.Violation)
		os.Exit(1)
	}
	fmt.Printf("\nevery one of the %d snapshots was a consistent cut: ledgers balanced,\n", res.Snapshots)
	fmt.Printf("no transfer received before it was sent, %d × %d bitcakes conserved\n", *n, *initial)
	fmt.Printf("through %d flap pulses, %d slow windows, %d crashes and %d checkpoint\n",
		res.Flaps, res.SlowNodes, res.Crashes, res.Restores)
	fmt.Printf("restores (trace digest %#x — rerun with the same seed to reproduce)\n", res.TraceHash)
}
