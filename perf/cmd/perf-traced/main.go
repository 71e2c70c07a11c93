// Command perf-traced is the benchmark's traced mode. It runs one workload
// with spans recorded around the calls into each layer — scenario.build and
// scenario.run around Build and RunContext, sim.event from one scheduler
// event to the next, core.recv around every vehicle and attacker frame
// reception, serve.job with its accept/queue/exec children from the
// clients' stream-line arrival times, and the replayed wire.decode and
// pki.open — and prints the per-layer ledger, the tracing overhead and a
// record line, then the result line with every per-layer metric.
//
// Spans are recorded from the benchmark's own files; the program under test
// is unchanged. The hooks reach internal types, which is why this is a
// command of its own: a refactor that breaks them breaks only this mode.
//
//	bash perf/run.sh --workload metro-grid --seed 1 --seconds 20 --trace 1
package main

import (
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
		name     = flag.String("workload", "", "workload to trace: paper-fig4, metro-grid or serve-mixed")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		secs     = flag.Float64("seconds", 20, "length of each timed mix pass (serve-mixed)")
		trace    = flag.Int("trace", 1, "must be 1: the untraced mode is the perf command")
		serveBin = flag.String("serve-bin", "", "blackdp-serve executable (serve-mixed)")
		root     = flag.String("root", ".", "repository root, for the provenance stamp")
	)
	flag.Parse()
	if *trace != 1 {
		fmt.Fprintln(os.Stderr, "perf-traced: --trace 0 is run by perf (use perf/run.sh)")
		return 2
	}
	o := workload.Options{
		Seed:     *seed,
		Duration: time.Duration(*secs * float64(time.Second)),
		ServeBin: *serveBin,
		Log:      os.Stderr,
	}
	var (
		t   *traced
		err error
	)
	switch *name {
	case workload.PaperFig4:
		t, err = traceFig4(o)
	case workload.MetroGrid:
		t, err = traceMetro(o)
	case workload.ServeMixed:
		t, err = traceServe(o)
	default:
		err = fmt.Errorf("unknown workload %q", *name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf-traced:", err)
		return 1
	}

	ledgers := map[string]any{}
	for _, ph := range t.phases {
		fmt.Fprintf(os.Stderr, "\nledger: %s\n%s", ph.name, ph.ledger)
		fmt.Fprintf(os.Stderr, "spans:\n%s", ph.spans)
		// The clock is read at span boundaries only, so the lines close
		// exactly; a negative line means overlapping spans.
		if err := ph.ledger.Check(0); err != nil {
			t.r.Fail("ledger %s: %v", ph.name, err)
		} else {
			t.r.OK()
		}
		ledgers[ph.name] = ph.ledger
	}
	t.r.Notes["ledgers"] = ledgers
	for _, f := range t.r.Failures {
		fmt.Fprintln(os.Stderr, "perf-traced: check failed:", f)
	}
	fmt.Fprintf(os.Stderr, "\ntracing overhead: %+.3f s (%+.1f%%)\n",
		t.r.Notes["trace_overhead_s"], 100*t.r.Notes["trace_overhead_share"].(float64))

	rec := workload.NewRecord(t.r, *secs, true, workload.Stamp(*root))
	rec.Metrics = t.layers.metrics
	rec.Unavailable = t.layers.unavailable
	var names []string
	for _, m := range perLayer {
		names = append(names, m.Name)
	}
	correct, err := workload.Emit(os.Stdout, rec, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf-traced:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}
