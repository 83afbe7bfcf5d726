// Command benchrunner regenerates the paper-reproduction experiment tables
// (E1–E10 in DESIGN.md/EXPERIMENTS.md).
//
// Usage:
//
//	benchrunner -exp all          # every experiment, full parameter sweeps
//	benchrunner -exp E3,E6 -quick # selected experiments, reduced sweeps
//	benchrunner -exp all -json    # also write BENCH_<ID>.json per experiment
//	benchrunner -list             # list the catalogue
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"selfstabsnap/internal/bench"
	"selfstabsnap/internal/metrics"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment ids (E1..E10) or 'all'")
		quick   = flag.Bool("quick", false, "reduced parameter sweeps (seconds instead of minutes)")
		list    = flag.Bool("list", false, "list experiments and exit")
		jsonOut = flag.Bool("json", false, "write BENCH_<ID>.json per experiment (see -outdir)")
		outDir  = flag.String("outdir", ".", "directory for -json output files")
		obsAddr = flag.String("obs", "", "observability HTTP address for sweep progress and pprof (empty = disabled)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []bench.Experiment
	if strings.EqualFold(*exp, "all") {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *jsonOut {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "outdir: %v\n", err)
			os.Exit(1)
		}
	}

	// Sweep progress, published to /statusz so a long -exp all run can be
	// watched (and profiled via /debug/pprof/) from outside.
	var progMu sync.Mutex
	type progress struct {
		Started   time.Time `json:"started"`
		Total     int       `json:"experiments_total"`
		Done      int       `json:"experiments_done"`
		Current   string    `json:"current"`
		Completed []string  `json:"completed"`
	}
	prog := progress{Started: time.Now(), Total: len(selected)}
	if *obsAddr != "" {
		srv := metrics.NewServer(*obsAddr)
		srv.SetStatus(func() any {
			progMu.Lock()
			defer progMu.Unlock()
			return prog
		})
		if err := srv.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("observability on http://%s (/metrics /statusz /debug/pprof/)\n\n", srv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // best-effort drain on exit
		}()
	}

	params := bench.Params{Quick: *quick}
	for _, e := range selected {
		progMu.Lock()
		prog.Current = e.ID
		progMu.Unlock()
		start := time.Now()
		tables := e.Run(params)
		elapsed := time.Since(start)
		progMu.Lock()
		prog.Done++
		prog.Completed = append(prog.Completed, e.ID)
		prog.Current = ""
		progMu.Unlock()
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		if !*jsonOut {
			continue
		}
		rep := &bench.Report{
			Experiment: e.ID,
			Title:      e.Title,
			Quick:      *quick,
			ElapsedMS:  elapsed.Milliseconds(),
			Tables:     tables,
		}
		b, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		path := filepath.Join(*outDir, "BENCH_"+e.ID+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n\n", path)
	}
}
