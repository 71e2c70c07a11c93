// Command blackdp-sim runs a single connected-vehicle simulation and prints
// a human-readable report: what the attacker did, whether BlackDP detected
// and isolated it, how many detection packets that cost, and how the
// application traffic fared.
//
//	blackdp-sim -seed 7 -cluster 4 -attack single
//	blackdp-sim -attack cooperative -cluster 9 -evasive
//	blackdp-sim -verify=false            # plain AODV, no defence
//	blackdp-sim -topology grid -grid-rows 3 -grid-cols 3 -cluster 5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"blackdp"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "random seed")
		cluster   = flag.Int("cluster", 0, "attacker cluster 1-10 (0 = random)")
		attackS   = flag.String("attack", "single", "attack: none | single | cooperative")
		verify    = flag.Bool("verify", true, "enable BlackDP verification (false = plain AODV)")
		vehicles  = flag.Int("vehicles", 100, "number of vehicles")
		dataN     = flag.Int("data", 10, "application packets to send")
		extra     = flag.Int("extra", 0, "additional independent black holes")
		loss      = flag.Float64("loss", 0, "per-receiver frame loss probability")
		evasive   = flag.Bool("evasive", false, "enable evasive attacker behaviour in clusters 8-10")
		scheme    = flag.String("scheme", blackdp.SchemeECDSA, "crypto scheme: ecdsa | session | placeholder")
		topology  = flag.String("topology", "highway", "road layout: highway | grid | multi | interchange")
		gridRows  = flag.Int("grid-rows", 4, "horizontal roads (topology=grid)")
		gridCols  = flag.Int("grid-cols", 4, "vertical roads (topology=grid)")
		highways  = flag.Int("highways", 3, "parallel carriageways (topology=multi)")
		gap       = flag.Float64("gap", 30, "median gap between carriageways in metres (topology=multi)")
		runWork   = flag.Int("run-workers", 1, "intra-run shard workers (<=1 = serial scheduler; >=2 = cluster-sharded parallel run)")
		confPath  = flag.String("config", "", "JSON config file (flags override its values)")
		jsonOut   = flag.Bool("json", false, "emit the outcome as JSON instead of prose")
		tracePath = flag.String("trace", "", "write the structured event log to this file (enables tracing)")
	)
	flag.Parse()

	cfg := blackdp.DefaultConfig()
	if *confPath != "" {
		loaded, err := blackdp.LoadConfig(*confPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blackdp-sim:", err)
			os.Exit(1)
		}
		cfg = loaded
	}
	// With a config file, only flags the user actually set override it;
	// without one, flag values (including their defaults) are the config.
	apply := map[string]func(){
		"seed":        func() { cfg.Seed = *seed },
		"cluster":     func() { cfg.AttackerCluster = *cluster },
		"verify":      func() { cfg.Vehicle.Verify = *verify },
		"vehicles":    func() { cfg.Vehicles = *vehicles },
		"data":        func() { cfg.DataPackets = *dataN },
		"extra":       func() { cfg.ExtraAttackers = *extra },
		"loss":        func() { cfg.LossRate = *loss },
		"scheme":      func() { cfg.CryptoScheme = *scheme },
		"topology":    func() { cfg.Topology = *topology },
		"grid-rows":   func() { cfg.GridRows = *gridRows },
		"grid-cols":   func() { cfg.GridCols = *gridCols },
		"highways":    func() { cfg.HighwayCount = *highways },
		"gap":         func() { cfg.HighwayGapM = *gap },
		"run-workers": func() { cfg.RunWorkers = *runWork },
		"attack": func() {
			switch *attackS {
			case "none":
				cfg.Attack = blackdp.NoAttack
			case "single":
				cfg.Attack = blackdp.SingleBlackHole
			case "cooperative":
				cfg.Attack = blackdp.CooperativeBlackHole
			default:
				fmt.Fprintf(os.Stderr, "blackdp-sim: unknown attack %q\n", *attackS)
				os.Exit(2)
			}
		},
		"evasive": func() {
			if *evasive {
				cfg.EvasiveClusters = []int{8, 9, 10}
			} else {
				cfg.EvasiveClusters = nil
			}
		},
	}
	if *confPath == "" {
		for _, fn := range apply {
			fn()
		}
	} else {
		flag.Visit(func(f *flag.Flag) {
			if fn, ok := apply[f.Name]; ok {
				fn()
			}
		})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	var (
		o   blackdp.Outcome
		err error
	)
	if *tracePath == "" {
		o, err = blackdp.Run(ctx, cfg)
	} else {
		o, err = runTraced(ctx, cfg, *tracePath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "blackdp-sim:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(o); err != nil {
			fmt.Fprintln(os.Stderr, "blackdp-sim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("run:        seed %d, %s attack, %d vehicles on %s topology, verify=%v\n",
		o.Seed, cfg.Attack, cfg.Vehicles, cfg.Topology, cfg.Vehicle.Verify)
	if o.AttackerPresent {
		fmt.Printf("attacker:   cluster %d", o.AttackerCluster)
		if o.Cooperative {
			fmt.Printf(" (with accomplice)")
		}
		if o.AttackersPresent > 1 {
			fmt.Printf(" (+%d more black holes; %d/%d isolated)",
				o.AttackersPresent-1, o.AttackersDetected, o.AttackersPresent)
		}
		fmt.Println()
	} else {
		fmt.Println("attacker:   none")
	}
	fmt.Printf("establish:  %s\n", o.EstablishStatus)
	switch {
	case o.Detected:
		fmt.Printf("detection:  CONFIRMED and isolated in %v (%d detection packets, %d isolation packets)\n",
			o.DetectionLatency.Round(time.Microsecond), o.DetectionPackets, o.IsolationPackets)
		if o.Cooperative {
			if o.TeammateDetected {
				fmt.Println("accomplice: exposed and isolated")
			} else {
				fmt.Println("accomplice: NOT exposed")
			}
		}
	case o.Prevented:
		fmt.Println("detection:  attacker evaded conviction, but the attack was blocked")
	case o.AttackerPresent:
		fmt.Println("detection:  MISSED (false negative)")
	default:
		fmt.Println("detection:  nothing to detect")
	}
	if o.FalseAccusations > 0 {
		fmt.Printf("WARNING:    %d innocent node(s) convicted (false positive)\n", o.FalseAccusations)
	}
	if o.DataSent > 0 {
		fmt.Printf("data:       %d/%d delivered (%.0f%%)\n",
			o.DataDelivered, o.DataSent, 100*float64(o.DataDelivered)/float64(o.DataSent))
	}
	fmt.Printf("simulated:  %v in %v wall clock\n", o.Duration, time.Since(start).Round(time.Millisecond))
	if *tracePath != "" {
		fmt.Printf("trace:      event log written to %s\n", *tracePath)
	}
}

// runTraced runs the simulation with event recording on and dumps the
// retained log to path.
func runTraced(ctx context.Context, cfg blackdp.Config, path string) (blackdp.Outcome, error) {
	cfg.Trace = true
	w, err := blackdp.Build(cfg)
	if err != nil {
		return blackdp.Outcome{}, err
	}
	o, err := w.RunContext(ctx)
	if err != nil {
		return blackdp.Outcome{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return blackdp.Outcome{}, err
	}
	if err := w.Env.Tracer.Snapshot().Dump(f); err != nil {
		f.Close()
		return blackdp.Outcome{}, fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return blackdp.Outcome{}, err
	}
	return o, nil
}
