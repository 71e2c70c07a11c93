package scenario

import (
	"fmt"
	"time"

	"blackdp/internal/cluster"
	"blackdp/internal/core"
	"blackdp/internal/mobility"
	"blackdp/internal/pki"
	"blackdp/internal/radio"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// FogResult measures the paper's SIII-C bottleneck experiment: a burst of
// reports hits one cluster head whose per-packet authentication costs
// AuthProcessing, with FogNodes fog verifiers to offload to.
type FogResult struct {
	Reporters      int
	FogNodes       int
	MeanVerdict    time.Duration // report-to-verdict latency, averaged
	MaxAuthLatency time.Duration // worst queueing+processing delay at the head
	AuthQueued     uint64
}

// RunFogAblation floods one RSU with reporters simultaneous d_reqs (each
// against its own honest suspect, so every report needs authentication and
// an examination) and measures how verification cost and fog offload shape
// verdict latency.
func RunFogAblation(seed int64, reporters int, authCost time.Duration, fogNodes int) (FogResult, error) {
	if reporters < 1 {
		return FogResult{}, fmt.Errorf("scenario: need at least one reporter")
	}
	highway, err := mobility.NewHighway(10_000, 200, 1000)
	if err != nil {
		return FogResult{}, err
	}
	rng := sim.NewRNG(seed)
	sched := sim.NewScheduler()
	env := core.Env{
		Sched:    sched,
		RNG:      rng.Split("core"),
		Trust:    pki.NewTrustStore(),
		Scheme:   pki.ECDSA{Rand: rng.Split("crypto").Reader()},
		Dir:      cluster.NewDirectory(),
		Highway:  highway,
		Medium:   radio.NewMedium(sched, rng.Split("radio")),
		Backbone: radio.NewBackbone(sched, time.Millisecond),
		Tally:    core.NewTally(),
	}
	ta, err := core.NewAuthorityAgent(env, 1, 1, []wire.ClusterID{1}, time.Hour)
	if err != nil {
		return FogResult{}, err
	}
	headCred, err := ta.IssueHeadCredential(1)
	if err != nil {
		return FogResult{}, err
	}
	head, err := core.NewHeadAgent(env, core.HeadConfig{AuthProcessing: authCost, FogNodes: fogNodes}, headCred, 1)
	if err != nil {
		return FogResult{}, err
	}
	head.Start()

	mk := func(lineage string, x float64) (*core.VehicleAgent, error) {
		cred, err := ta.IssueVehicleCredential(lineage)
		if err != nil {
			return nil, err
		}
		mob, err := mobility.NewMobile(highway, mobility.Position{X: x, Y: 100}, mobility.Eastbound, 14, 0)
		if err != nil {
			return nil, err
		}
		v, err := core.NewVehicleAgent(env, core.VehicleConfig{Verify: true}, cred, mob)
		if err != nil {
			return nil, err
		}
		v.Start()
		return v, nil
	}

	reps := make([]*core.VehicleAgent, reporters)
	suspects := make([]*core.VehicleAgent, reporters)
	for i := range reps {
		x := 100 + float64(i%40)*10
		if reps[i], err = mk(fmt.Sprintf("rep-%d", i), x); err != nil {
			return FogResult{}, err
		}
		if suspects[i], err = mk(fmt.Sprintf("sus-%d", i), x+400); err != nil {
			return FogResult{}, err
		}
	}

	var latencies []time.Duration
	sched.After(time.Second, func() {
		for i := range reps {
			i := i
			filedAt := sched.Now()
			err := reps[i].ReportSuspect(suspects[i].NodeID(), 1, suspects[i].Credential().Serial(),
				func(core.EstablishResult) {
					latencies = append(latencies, sched.Now()-filedAt)
				})
			if err != nil {
				return
			}
		}
	})
	deadline := 120 * time.Second
	for len(latencies) < reporters && sched.Now() < deadline && sched.Pending() > 0 {
		sched.Step()
	}
	if len(latencies) < reporters {
		return FogResult{}, fmt.Errorf("scenario: only %d/%d verdicts arrived", len(latencies), reporters)
	}

	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	st := head.Stats()
	return FogResult{
		Reporters:      reporters,
		FogNodes:       fogNodes,
		MeanVerdict:    sum / time.Duration(len(latencies)),
		MaxAuthLatency: st.AuthMaxLatency,
		AuthQueued:     st.AuthQueued,
	}, nil
}
