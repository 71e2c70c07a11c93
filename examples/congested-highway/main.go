// Congested highway: when traffic is dense, many vehicles may report the
// same suspicious node at once. BlackDP's verification table deduplicates
// concurrent d_reqs — the cluster head runs ONE examination, then answers
// every reporter — bounding RSU work under congestion (the paper's SIII-B
// optimisation). This example files five concurrent reports against one
// black hole and shows a single probe sequence servicing all of them.
package main

import (
	"fmt"
	"log"
	"time"

	"blackdp"
	"blackdp/internal/core"
	"blackdp/internal/wire"
)

func main() {
	cfg := blackdp.DefaultConfig()
	cfg.Seed = 21
	cfg.AttackerCluster = 1 // same cluster as the congested on-ramp
	cfg.DataPackets = 0

	world, err := blackdp.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	suspect := world.Attacker.NodeID()
	serial := world.Attacker.Credential().Serial()

	// Pick five legitimate vehicles registered near the attacker to act as
	// concurrent reporters.
	var reporters []*core.VehicleAgent
	for _, v := range world.Vehicles {
		if v == world.Attacker || v == world.Destination {
			continue
		}
		if v.Mobile().ClusterAt(0) == 1 {
			reporters = append(reporters, v)
		}
		if len(reporters) == 5 {
			break
		}
	}
	if len(reporters) < 2 {
		log.Fatal("not enough vehicles in cluster 1; pick another seed")
	}

	verdicts := 0
	world.Sched.After(time.Second, func() {
		for _, r := range reporters {
			r := r
			err := r.ReportSuspect(suspect, 1, serial, func(res core.EstablishResult) {
				verdicts++
				fmt.Printf("  reporter %v got verdict: %v\n", r.NodeID(), res.Verdict)
			})
			if err != nil {
				log.Fatal(err)
			}
		}
	})
	fmt.Printf("Congested cluster: %d vehicles report %v simultaneously\n\n", len(reporters), suspect)
	world.Sched.RunFor(20 * time.Second)

	head := world.Heads[1]
	st := head.Stats()
	ct, _ := world.Env.Tally.Lookup(suspect)
	fmt.Printf("\ncluster head %v:\n", head.NodeID())
	fmt.Printf("  d_reqs received:       %d\n", st.DReqReceived)
	fmt.Printf("  deduplicated:          %d (verification-table hits)\n", st.DReqDuplicates)
	fmt.Printf("  examinations run:      %d\n", st.Examinations)
	fmt.Printf("  probe packets sent:    %d (one bait sequence for everyone)\n", ct.ProbesSent)
	fmt.Printf("  verdicts delivered:    %d\n", verdicts)
	fmt.Printf("  suspect blacklisted:   %v\n", head.Membership().IsBlacklisted(suspect))
	if ct.Verdict == wire.VerdictMalicious {
		fmt.Println("\nOne examination served every reporter; RSU load stays flat under congestion.")
	}
}
