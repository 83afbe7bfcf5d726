// Command perfbench is the repository's real-clock benchmark. It runs one
// closed-loop workload against the snapshot algorithms, checks every
// operation for linearizability, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as one JSON line.
//
// Build and run it through run.py from the repository root:
//
//	python3 perfbench/run.py --workload tcp-mixed --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer each metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"selfstabsnap/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full per-run record kept under --out, for comparisons.
type record struct {
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Seconds        float64           `json:"seconds"`
	Trace          int               `json:"trace"`
	Fingerprint    fingerprint       `json:"fingerprint"`
	FingerprintKey string            `json:"fingerprint_key"`
	WriteSamples   int64             `json:"write_samples"`
	SnapSamples    int64             `json:"snapshot_samples"`
	Report         report            `json:"report"`
	Gate           string            `json:"gate"`
	Spans          []spanOut         `json:"spans,omitempty"`
	Extra          map[string]metric `json:"untraced_reference,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tcp-mixed, delta-storm or lossy-recovery")
	seed := fs.Int64("seed", 1, "seed for payloads, node order, netsim adversary and fault timing")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the full per-run record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp := lookup(*name)
	if sp == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (tcp-mixed, delta-storm, lossy-recovery), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))

	fp := takeFingerprint()
	fmt.Fprintf(stdout, "# fingerprint %s timer_overshoot_us=%.0f\n", fp.key(), fp.TimerOvershootUS)

	rec := record{Workload: sp.name, Seed: *seed, Seconds: *seconds, Trace: *traced,
		Fingerprint: fp, FingerprintKey: fp.key()}
	var res *result
	var err error
	if *traced == 0 {
		res, err = measure(sp, *seed, window, nil)
		if err == nil {
			rec.Report.Metrics = endToEnd(res)
		}
	} else {
		// The untraced reference run gives the tracing overhead; it is
		// gated like any other run.
		var base *result
		base, err = measure(sp, *seed, window, nil)
		if err == nil {
			tr := newTracer(sp.n, !sp.tcp)
			res, err = measure(sp, *seed, window, tr)
			if err == nil {
				if res.gateErr == nil {
					res.gateErr = base.gateErr
				}
				rec.Extra = endToEnd(base)
				rec.Report.Metrics, err = perLayer(sp, res, tr, endToEnd(res), rec.Extra)
				rec.Spans = spansOut(tr)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	rec.Report.Attempted, rec.Report.Failed = res.attempted, res.fails
	rec.Report.Correct = res.gateErr == nil
	rec.WriteSamples, rec.SnapSamples = res.writeUS.n, res.snapUS.n
	rec.Gate = fmt.Sprintf("%d operations in %d epochs checked in %.2fs", res.checkedOps, res.epochs, res.checkS)
	if res.gateErr != nil {
		rec.Gate = "VIOLATION: " + res.gateErr.Error()
	}

	fmt.Fprintf(stdout, "# gate: %s\n", rec.Gate)
	fmt.Fprintf(stdout, "# samples: %d writes, %d snapshots, %d failed of %d attempted\n",
		rec.WriteSamples, rec.SnapSamples, res.fails, res.attempted)
	names := make([]string, 0, len(rec.Report.Metrics))
	for k := range rec.Report.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "# %-36s %14.4f %s\n", k, rec.Report.Metrics[k].Value, rec.Report.Metrics[k].Unit)
	}
	if err := writeRecord(*out, rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
	}
	line, err := json.Marshal(rec.Report)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Report.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: correctness gate failed: %v\n", sp.name, res.gateErr)
		return 1
	}
	return 0
}

func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, rec.Trace))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return nil
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const usPerNS = 1e-3

// endToEnd computes the metrics a user of the system sees.
func endToEnd(r *result) map[string]metric {
	ok := float64(r.ok())
	return map[string]metric{
		"ops_per_s":       {div(ok, r.active.Seconds()), "1/s"},
		"write_p50_us":    {percentile(r.writeUS.xs, 0.50), "us"},
		"write_p99_us":    {percentile(r.writeUS.xs, 0.99), "us"},
		"snapshot_p50_us": {percentile(r.snapUS.xs, 0.50), "us"},
		"snapshot_p99_us": {percentile(r.snapUS.xs, 0.99), "us"},
		"bytes_per_op":    {div(float64(r.traffic.Bytes), ok), "B/op"},
		"cpu_us_per_op":   {div(float64(r.cpu.Microseconds()), ok), "us/op"},
		"peak_heap_mb":    {r.peakHeapMB, "MB"},
		"setup_s":         {median(r.setupS), "s"},
		"recovery_ms_p50": {median(r.recoveryMS), "ms"},
	}
}

// msgTypes are the message types reported per operation.
var msgTypes = []wire.Type{
	wire.TWrite, wire.TWriteAck, wire.TSnapshot, wire.TSnapshotAck,
	wire.TGossip, wire.TGossipAck, wire.TSnap, wire.TEnd, wire.TSave, wire.TSaveAck,
}

// perLayer computes the per-layer metrics of a traced run. Layers a
// workload does not exercise (tcpnet on netsim, netsim on tcpnet) report 0.
func perLayer(sp *spec, r *result, tr *tracer, traced, untraced map[string]metric) (map[string]metric, error) {
	ok := float64(r.ok())
	kop := ok / 1000
	snaps := float64(r.snapUS.n)
	m := map[string]metric{}

	cr, err := replayCodec(tr.samples, 20)
	if err != nil {
		return nil, fmt.Errorf("codec replay: %w", err)
	}
	m["wire.marshal_ns_per_msg"] = metric{cr.marshalNS, "ns"}
	m["wire.unmarshal_ns_per_msg"] = metric{cr.unmarshalNS, "ns"}
	m["wire.bytes_per_msg"] = metric{cr.bytes, "B"}

	var tcp, sim float64
	if sp.tcp {
		tcp = 1
	} else {
		sim = 1
	}
	sendP50 := tr.sendNS.quantile(0.5)
	depthP99 := tr.depth.quantile(0.99)
	evictions := div(float64(r.traffic.Evictions), kop)
	m["tcpnet.send_ns_p50"] = metric{tcp * sendP50, "ns"}
	m["tcpnet.read_syscalls_per_msg"] = metric{tcp * div(float64(r.syscr), float64(tr.framesIn.Load())), "count"}
	m["tcpnet.write_syscalls_per_msg"] = metric{tcp * div(float64(r.syscw), float64(tr.framesOut.Load())), "count"}
	m["tcpnet.inbox_depth_p99"] = metric{tcp * depthP99, "count"}
	m["tcpnet.evictions_per_kop"] = metric{tcp * evictions, "count"}
	m["netsim.send_ns_p50"] = metric{sim * sendP50, "ns"}
	m["netsim.oneway_us_p50"] = metric{sim * tr.oneway.quantile(0.5) * usPerNS, "us"}
	m["netsim.oneway_us_p99"] = metric{sim * tr.oneway.quantile(0.99) * usPerNS, "us"}
	m["netsim.inbox_depth_p99"] = metric{sim * depthP99, "count"}
	m["netsim.drops_per_kop"] = metric{sim * div(float64(r.traffic.Drops), kop), "count"}
	m["netsim.dups_per_kop"] = metric{sim * div(float64(r.traffic.Dups), kop), "count"}
	m["netsim.evictions_per_kop"] = metric{sim * evictions, "count"}

	var calls, sends, snapCalls int64
	for i := range tr.calls {
		cs := &tr.calls[i]
		cs.mu.Lock()
		for _, t := range []wire.Type{wire.TWrite, wire.TSnapshot, wire.TSave} {
			calls += cs.calls[t]
			sends += cs.sends[t]
		}
		snapCalls += cs.calls[wire.TSnapshot]
		cs.mu.Unlock()
	}
	activeNS := float64(r.active.Nanoseconds())
	m["node.handler_us_p50"] = metric{tr.handlerNS.quantile(0.5) * usPerNS, "us"}
	m["node.handler_us_p99"] = metric{tr.handlerNS.quantile(0.99) * usPerNS, "us"}
	m["node.dispatch_busy_frac"] = metric{div(float64(tr.busyNS.Load()), activeNS*float64(sp.n)), "ratio"}
	m["node.loop_hz"] = metric{div(float64(r.loops), r.active.Seconds()*float64(sp.n)), "Hz"}
	m["node.retx_per_call"] = metric{div(float64(sends-calls), float64(calls)), "count"}
	m["node.invoke_to_first_send_us_p50"] = metric{tr.invokeToSend.quantile(0.5) * usPerNS, "us"}
	m["node.ack_to_return_us_p50"] = metric{tr.ackToReturn.quantile(0.5) * usPerNS, "us"}

	for _, t := range msgTypes {
		m["msgs_per_op."+t.String()] = metric{div(float64(r.traffic.PerType[t].Messages), ok), "msgs/op"}
	}
	var help int64
	for _, t := range []wire.Type{wire.TSnapshot, wire.TSnapshotAck, wire.TSave, wire.TSaveAck, wire.TSnap, wire.TEnd} {
		help += tr.byClass[t][clsBackground].Load() + tr.byClass[t][clsWrite].Load()
	}
	gossipDecisions := float64(r.acks.Full + r.acks.Delta + r.acks.Suppressed)
	m["nonblocking.rounds_per_snapshot"] = metric{div(float64(snapCalls), snaps), "count"}
	m["deltasnap.help_msgs_per_snapshot"] = metric{div(float64(help), snaps), "msgs"}
	m["gossip.suppressed_frac"] = metric{div(float64(r.acks.Suppressed), gossipDecisions), "ratio"}
	m["gossip.bytes_frac"] = metric{div(float64(r.traffic.BytesOf(wire.TGossip, wire.TGossipAck)), float64(r.traffic.Bytes)), "ratio"}

	m["recovery.cycles_p50"] = metric{median(r.recoveryCycles), "cycles"}
	m["recovery.msgs_per_fault"] = metric{median(r.recoveryMsgs), "msgs"}

	m["go.alloc_bytes_per_op"] = metric{div(float64(r.alloc), ok), "B/op"}
	m["go.gc_cpu_frac"] = metric{div(r.gcCPU, r.totalCPU), "ratio"}
	m["proc.ctx_switches_per_op"] = metric{div(float64(r.ctxSw), ok), "count"}
	m["history.check_s"] = metric{r.checkS, "s"}

	m["client.failed_op_frac"] = metric{div(float64(r.fails), float64(r.attempted)), "ratio"}
	m["client.write_samples"] = metric{float64(r.writeUS.n), "count"}
	m["client.snapshot_samples"] = metric{float64(r.snapUS.n), "count"}

	tr.spanMu.Lock()
	m["trace.op_self_frac"] = metric{div(float64(tr.selfNS), float64(tr.opNS)), "ratio"}
	m["trace.op_send_frac"] = metric{div(float64(tr.sendChildNS), float64(tr.opNS)), "ratio"}
	m["trace.op_handle_frac"] = metric{div(float64(tr.handleChildNS), float64(tr.opNS)), "ratio"}
	tr.spanMu.Unlock()
	m["trace.overhead_ops_frac"] = metric{1 - div(traced["ops_per_s"].Value, untraced["ops_per_s"].Value), "ratio"}
	m["trace.overhead_cpu_frac"] = metric{div(traced["cpu_us_per_op"].Value, untraced["cpu_us_per_op"].Value) - 1, "ratio"}
	m["trace.overhead_write_p50_frac"] = metric{div(traced["write_p50_us"].Value, untraced["write_p50_us"].Value) - 1, "ratio"}
	return m, nil
}

// spanOut is a kept operation span as written out at exit; times are µs
// from the tracer's start.
type spanOut struct {
	ID       uint64     `json:"trace_id"`
	Node     int        `json:"node"`
	Kind     string     `json:"kind"`
	StartUS  float64    `json:"start_us"`
	EndUS    float64    `json:"end_us"`
	SelfUS   float64    `json:"self_us"`
	Children []childOut `json:"children"`
}

type childOut struct {
	Name    string  `json:"name"`
	Node    int     `json:"node"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func spansOut(tr *tracer) []spanOut {
	tr.spanMu.Lock()
	defer tr.spanMu.Unlock()
	out := make([]spanOut, 0, len(tr.kept))
	for _, sp := range tr.kept {
		so := spanOut{
			ID: sp.id, Node: sp.node, Kind: sp.kind.String(),
			StartUS: float64(sp.start) * usPerNS, EndUS: float64(sp.end) * usPerNS,
			SelfUS: float64(sp.end-sp.start-covered(sp.children, sp.start, sp.end)) * usPerNS,
		}
		for _, c := range sp.children {
			so.Children = append(so.Children, childOut{Name: c.name, Node: c.node,
				StartUS: float64(c.start) * usPerNS, EndUS: float64(c.end) * usPerNS})
		}
		out = append(out, so)
	}
	return out
}
