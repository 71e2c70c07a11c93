// Command perf is the repository benchmark's measuring command: it runs one
// workload with tracing off, checks its outputs, and prints a provenance-
// stamped record line followed by the result line (every end-to-end metric
// by name with its unit). It touches only the stable surfaces — package
// blackdp, the blackdp-serve binary and serve/client.
//
// Run it through perf/run.sh from the repository root, which builds it:
//
//	bash perf/run.sh --workload metro-grid --seed 1 --seconds 20 --trace 0
//
// --trace 1 is served by the separate perf-traced command; run.sh picks it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"blackdp/perf/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run: paper-fig4, metro-grid or serve-mixed")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		secs     = flag.Float64("seconds", 20, "length of the timed phase")
		trace    = flag.Int("trace", 0, "must be 0: the traced mode is the perf-traced command")
		serveBin = flag.String("serve-bin", "", "blackdp-serve executable (serve-mixed)")
		root     = flag.String("root", ".", "repository root, for the provenance stamp")
	)
	flag.Parse()
	if *trace != 0 {
		fmt.Fprintln(os.Stderr, "perf: --trace 1 is run by perf-traced (use perf/run.sh)")
		return 2
	}
	o := workload.Options{
		Seed:     *seed,
		Duration: time.Duration(*secs * float64(time.Second)),
		ServeBin: *serveBin,
		Log:      os.Stderr,
	}
	res, err := workload.Run(context.Background(), *name, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "perf: check failed:", f)
	}
	var names []string
	for _, m := range workload.EndToEnd {
		names = append(names, m.Name)
	}
	rec := workload.NewRecord(res, *secs, false, workload.Stamp(*root))
	correct, err := workload.Emit(os.Stdout, rec, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}
