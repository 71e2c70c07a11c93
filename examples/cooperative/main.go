// Cooperative attack walk-through: reproduces the paper's Figure 3 scenario
// — two cooperating black holes (B1 attracts traffic, B2 vouches for B1's
// fake route) — with the full detection trace printed step by step: the
// victim's verification probes, the d_req, the cluster head's bait probes
// under a disposable identity, the next-hop inquiry that exposes the
// teammate, and the isolation of both.
package main

import (
	"fmt"
	"log"

	"blackdp"
	"blackdp/internal/trace"
)

func main() {
	cfg := blackdp.DefaultConfig()
	cfg.Seed = 11
	cfg.Attack = blackdp.CooperativeBlackHole
	cfg.AttackerCluster = 2
	cfg.Trace = true

	world, err := blackdp.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Cooperative black hole detection (the paper's Figure 3 flow)")
	fmt.Printf("  primary attacker: %v (cluster %d)\n", world.Attacker.NodeID(), cfg.AttackerCluster)
	fmt.Printf("  accomplice:       %v\n", world.Teammate.NodeID())
	fmt.Printf("  victim:           %v, destination %v\n\n", world.Source.NodeID(), world.Destination.NodeID())

	outcome := world.Run()

	fmt.Println("protocol trace (verification, detection, isolation):")
	for _, e := range world.Env.Tracer.Snapshot().Filter(0, trace.CatVerify, trace.CatDetect, trace.CatIsolate, trace.CatAuthority) {
		fmt.Println(" ", e)
	}

	fmt.Println("\noutcome:")
	fmt.Printf("  primary detected:  %v\n", outcome.Detected)
	fmt.Printf("  accomplice caught: %v\n", outcome.TeammateDetected)
	fmt.Printf("  detection packets: %d (paper: 8-11 for cooperative attacks)\n", outcome.DetectionPackets)
	fmt.Printf("  data delivered after isolation: %d/%d\n", outcome.DataDelivered, outcome.DataSent)
}
