// Command blackdp-experiments regenerates every table and figure of the
// paper's evaluation section, plus the DESIGN.md ablations:
//
//	blackdp-experiments table1                 # Table I simulation parameters
//	blackdp-experiments fig4  [-reps 150]      # detection accuracy / FP / FN per attacker cluster
//	blackdp-experiments fig5  [-reps 10]       # detection packets per scenario class
//	blackdp-experiments compare [-reps 20]     # ablation: SN baselines vs BlackDP
//	blackdp-experiments connector [-reps 10]   # ablation: the connector case
//	blackdp-experiments crypto [-reps 10]      # ablation: ECDSA vs session-token vs free signatures
//	blackdp-experiments loss [-reps 10]        # ablation: detection under channel loss
//	blackdp-experiments density [-reps 10]     # ablation: vehicle density (RSU load)
//	blackdp-experiments topology [-reps 10]    # ablation: highway vs grid/multi/interchange worlds
//	blackdp-experiments overhead [-reps 10]    # the "lightweight" claim: added air traffic
//	blackdp-experiments fog                    # SIII-C: RSU auth bottleneck + fog offload
//	blackdp-experiments faults [-reps 10]      # robustness: head crashes + burst loss
//	blackdp-experiments all                    # everything, small rep counts
//
// Replications are embarrassingly parallel: -workers N fans them out over a
// worker pool (default: one per CPU). Any worker count produces identical
// tables — replication seeds and result order depend only on the
// replication index, never on scheduling — and -workers 1 reproduces the
// historical serial path exactly.
//
// Pass -csv DIR to additionally write each table as a CSV artefact for
// plotting. Absolute numbers depend on this simulator, not the authors'
// testbed; the shapes (who wins, where accuracy drops, packet-count ranges)
// are the reproduction target.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"blackdp"
	"blackdp/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	reps := fs.Int("reps", defaultReps(cmd), "repetitions per data point")
	seed := fs.Int64("seed", 1, "base random seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "replication pool size (1 = serial)")
	runWorkers := fs.Int("run-workers", 1, "intra-run shard workers per simulation (<=1 = serial scheduler; >=2 = cluster-sharded parallel runs)")
	scheme := fs.String("scheme", blackdp.SchemeECDSA, "crypto scheme: ecdsa | session | placeholder")
	csvDir := fs.String("csv", "", "directory to write CSV artefacts into")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	p := params{ctx: context.Background(), seed: *seed, reps: *reps, workers: *workers,
		runWorkers: *runWorkers, scheme: *scheme}
	var err error
	switch {
	case cmd == "all":
		for i, e := range experiments {
			if i > 0 {
				fmt.Println()
			}
			if err = emit(e.run, p, *csvDir); err != nil {
				break
			}
		}
	case lookup(cmd) != nil:
		err = emit(lookup(cmd), p, *csvDir)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "blackdp-experiments:", err)
		os.Exit(1)
	}
}

// emit runs one experiment and renders its tables (plus CSV artefacts when
// csvDir is set).
func emit(run func(params) ([]*report.Table, error), p params, csvDir string) error {
	tables, err := run(p)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Emit(csvDir); err != nil {
			return err
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: blackdp-experiments <table1|fig4|fig5|compare|connector|crypto|loss|density|topology|overhead|fog|faults|all> [-reps N] [-seed S] [-workers W] [-run-workers R] [-scheme S] [-csv DIR]")
}

func defaultReps(cmd string) int {
	if cmd == "fig4" {
		return 150 // the paper's repetition count
	}
	return 10
}
