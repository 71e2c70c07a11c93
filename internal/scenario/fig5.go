package scenario

import (
	"context"
	"fmt"
	"time"

	"blackdp/internal/attack"
	"blackdp/internal/cluster"
	"blackdp/internal/core"
	"blackdp/internal/exp"
	"blackdp/internal/metrics"
	"blackdp/internal/mobility"
	"blackdp/internal/pki"
	"blackdp/internal/radio"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// Fig5Category enumerates the detection-packet scenarios of the paper's
// Figure 5. "Local" means the suspect is registered in the reporter's own
// cluster; "Remote" means it lives elsewhere (one backbone hand-off);
// "Moved" means it answers the first probe and then crosses into the next
// cluster mid-examination, so the case is handed over with its probe state.
type Fig5Category int

// Figure 5 scenario categories.
const (
	Fig5NoAttackerLocal Fig5Category = iota + 1
	Fig5NoAttackerRemote
	Fig5SingleLocal
	Fig5SingleMoved
	Fig5SingleMovedRemote
	Fig5CooperativeLocal
	Fig5CooperativeMoved
	Fig5CooperativeMovedRemote
)

// Fig5Categories lists every category in presentation order.
func Fig5Categories() []Fig5Category {
	return []Fig5Category{
		Fig5NoAttackerLocal, Fig5NoAttackerRemote,
		Fig5SingleLocal, Fig5SingleMoved, Fig5SingleMovedRemote,
		Fig5CooperativeLocal, Fig5CooperativeMoved, Fig5CooperativeMovedRemote,
	}
}

func (c Fig5Category) String() string {
	switch c {
	case Fig5NoAttackerLocal:
		return "no-attacker/local"
	case Fig5NoAttackerRemote:
		return "no-attacker/remote"
	case Fig5SingleLocal:
		return "single/local"
	case Fig5SingleMoved:
		return "single/moved"
	case Fig5SingleMovedRemote:
		return "single/moved+remote"
	case Fig5CooperativeLocal:
		return "cooperative/local"
	case Fig5CooperativeMoved:
		return "cooperative/moved"
	case Fig5CooperativeMovedRemote:
		return "cooperative/moved+remote"
	default:
		return fmt.Sprintf("Fig5Category(%d)", int(c))
	}
}

// PaperPackets returns the packet count the paper reports for the category
// (Figure 5: four to six without an attacker; six, eight and nine for the
// single black hole; plus two for the cooperative one).
func (c Fig5Category) PaperPackets() int {
	switch c {
	case Fig5NoAttackerLocal:
		return 4
	case Fig5NoAttackerRemote:
		return 6
	case Fig5SingleLocal:
		return 6
	case Fig5SingleMoved:
		return 8
	case Fig5SingleMovedRemote:
		return 9
	case Fig5CooperativeLocal:
		return 8
	case Fig5CooperativeMoved:
		return 10
	case Fig5CooperativeMovedRemote:
		return 11
	default:
		return 0
	}
}

func (c Fig5Category) attacker() bool {
	return c != Fig5NoAttackerLocal && c != Fig5NoAttackerRemote
}

func (c Fig5Category) cooperative() bool {
	switch c {
	case Fig5CooperativeLocal, Fig5CooperativeMoved, Fig5CooperativeMovedRemote:
		return true
	}
	return false
}

func (c Fig5Category) moved() bool {
	switch c {
	case Fig5SingleMoved, Fig5SingleMovedRemote, Fig5CooperativeMoved, Fig5CooperativeMovedRemote:
		return true
	}
	return false
}

func (c Fig5Category) remote() bool {
	switch c {
	case Fig5NoAttackerRemote, Fig5SingleMovedRemote, Fig5CooperativeMovedRemote:
		return true
	}
	return false
}

// Fig5Result is the measured outcome of one Figure 5 scenario.
type Fig5Result struct {
	Category Fig5Category
	Packets  int
	Verdict  wire.Verdict
	Case     core.CaseTally
}

// RunFig5 executes one engineered Figure 5 scenario and returns the
// detection-packet count.
func RunFig5(cat Fig5Category, seed int64) (Fig5Result, error) {
	w, err := newFig5World(cat, seed)
	if err != nil {
		return Fig5Result{}, err
	}
	return w.run()
}

// fig5World is a purpose-built miniature highway for packet accounting:
// one reporter, one suspect (honest or hostile, optionally with an
// accomplice), full infrastructure, no filler traffic.
type fig5World struct {
	cat   Fig5Category
	env   core.Env
	sched *sim.Scheduler

	reporter *core.VehicleAgent
	suspect  *core.VehicleAgent
	teammate *core.VehicleAgent
}

func newFig5World(cat Fig5Category, seed int64) (*fig5World, error) {
	highway, err := mobility.NewHighway(10_000, 200, 1000)
	if err != nil {
		return nil, err
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
	w := &fig5World{cat: cat, env: env, sched: sched}

	served := make([]wire.ClusterID, highway.Clusters())
	for i := range served {
		served[i] = wire.ClusterID(i + 1)
	}
	ta, err := core.NewAuthorityAgent(env, 1, 1, served, time.Hour)
	if err != nil {
		return nil, err
	}
	headCfg := core.HeadConfig{}
	if cat.moved() {
		// The verification-table processing interval during which the
		// suspect crosses into the next cluster.
		headCfg.StageDelay = 2500 * time.Millisecond
	}
	for c := wire.ClusterID(1); int(c) <= highway.Clusters(); c++ {
		cred, err := ta.IssueHeadCredential(c)
		if err != nil {
			return nil, err
		}
		h, err := core.NewHeadAgent(env, headCfg, cred, c)
		if err != nil {
			return nil, err
		}
		h.Start()
	}

	mkVehicle := func(lineage string, x, speed float64) (*core.VehicleAgent, error) {
		cred, err := ta.IssueVehicleCredential(lineage)
		if err != nil {
			return nil, err
		}
		mob, err := mobility.NewMobile(highway, mobility.Position{X: x, Y: 100}, mobility.Eastbound, speed, 0)
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

	// Reporter near the start of cluster 1, dawdling.
	if w.reporter, err = mkVehicle("reporter", 200, 14); err != nil {
		return nil, err
	}

	// Suspect placement: local cases keep it in the reporter's cluster;
	// remote cases start it one cluster over (so the d_req crosses the
	// backbone once); moved cases start it 25 m short of its cluster's end
	// at 25 m/s, crossing one second after the examination begins.
	var suspectX float64
	speed := 14.0
	switch {
	case cat.moved() && cat.remote():
		suspectX, speed = 1950, 25
	case cat.moved():
		suspectX, speed = 950, 25
	case cat.remote():
		suspectX = 2600
	default:
		suspectX = 700
	}
	if w.suspect, err = mkVehicle("suspect", suspectX, speed); err != nil {
		return nil, err
	}

	if cat.attacker() {
		if cat.cooperative() {
			if w.teammate, err = mkVehicle("teammate", suspectX+250, speed); err != nil {
				return nil, err
			}
			tp := attack.DefaultProfile()
			tp.SupportOnly = true
			w.arm(w.teammate, tp)
		}
		p := attack.DefaultProfile()
		if w.teammate != nil {
			p.Teammate = w.teammate.NodeID()
		}
		w.arm(w.suspect, p)
	}
	return w, nil
}

func (w *fig5World) arm(v *core.VehicleAgent, profile attack.Profile) {
	bh := attack.NewBlackhole(profile, attack.Env{
		Sched:   w.sched,
		RNG:     w.env.RNG.Split("attacker-" + v.NodeID().String()),
		Send:    v.Interface().Send,
		Self:    v.Interface().NodeID,
		Cluster: v.Client().Cluster,
		Seal: func(p wire.Packet) ([]byte, error) {
			sec, err := pki.Seal(p, v.Credential(), w.env.Scheme)
			if err != nil {
				return nil, err
			}
			return sec.MarshalBinary()
		},
		Inner: v.HandleFrame,
	})
	v.Interface().SetReceiver(bh.HandleFrame)
}

func (w *fig5World) run() (Fig5Result, error) {
	suspectID := w.suspect.NodeID()
	var done bool
	w.sched.After(time.Second, func() {
		cluster := w.suspect.Client().Cluster()
		serial := w.suspect.Credential().Serial()
		err := w.reporter.ReportSuspect(suspectID, cluster, serial, func(core.EstablishResult) { done = true })
		if err != nil {
			done = true
		}
	})
	deadline := 30 * time.Second
	for !done && w.sched.Now() < deadline && w.sched.Pending() > 0 {
		w.sched.Step()
	}
	if !done {
		return Fig5Result{}, fmt.Errorf("scenario: %v report never resolved", w.cat)
	}
	// Let trailing isolation traffic settle for the tally.
	w.sched.RunFor(2 * time.Second)

	ct, ok := w.env.Tally.Lookup(suspectID)
	if !ok {
		return Fig5Result{}, fmt.Errorf("scenario: %v produced no tally case", w.cat)
	}
	return Fig5Result{Category: w.cat, Packets: ct.DetectionPackets(), Verdict: ct.Verdict, Case: *ct}, nil
}

// Fig5Series runs every category and returns the measured packet counts in
// presentation order, one category per worker.
func Fig5Series(seed int64) ([]Fig5Result, error) {
	return Fig5SeriesSweep(context.Background(), seed, SweepOptions{})
}

// Fig5SeriesSweep is Fig5Series with cancellation and sweep options. Each
// category builds its own miniature world from the same seed, so results
// match the serial path for any worker count.
func Fig5SeriesSweep(ctx context.Context, seed int64, opt SweepOptions) ([]Fig5Result, error) {
	cats := Fig5Categories()
	return exp.Map(ctx, len(cats), exp.Options{
		Workers:  opt.Workers,
		SeedOf:   func(int) int64 { return seed },
		Progress: opt.Progress,
	}, func(_ context.Context, i int) (Fig5Result, error) {
		return RunFig5(cats[i], seed)
	})
}

// Fig4Point is one bar of the paper's Figure 4: single or cooperative
// attack, per attacker cluster.
type Fig4Point struct {
	Cluster int
	Kind    AttackKind
	Summary metrics.Summary
}

// RunFig4 sweeps attacker clusters 1..N for the given attack kind with reps
// repetitions each, enabling the paper's evasive behaviours in clusters
// 8-10 (generalised: the last three clusters).
func RunFig4(base Config, kind AttackKind, reps int) ([]Fig4Point, error) {
	return RunFig4Sweep(context.Background(), base, kind, reps, SweepOptions{})
}

// RunFig4Sweep is RunFig4 with cancellation and sweep options. The full
// clusters x reps grid is one flat sweep, so the pool stays saturated
// across cluster boundaries; points still come back in cluster order with
// replications aggregated in replication order.
func RunFig4Sweep(ctx context.Context, base Config, kind AttackKind, reps int, opt SweepOptions) ([]Fig4Point, error) {
	base = base.withDefaults()
	clusters := int(base.HighwayLengthM / base.ClusterLengthM)
	evasive := []int{}
	for c := clusters - 2; c <= clusters; c++ {
		if c >= 1 {
			evasive = append(evasive, c)
		}
	}
	cfgs := make([]Config, clusters*reps)
	for c := 1; c <= clusters; c++ {
		for rep := 0; rep < reps; rep++ {
			cfg := base
			cfg.Attack = kind
			cfg.AttackerCluster = c
			cfg.EvasiveClusters = evasive
			cfg.Seed = base.Seed + int64(rep)*7919
			cfgs[(c-1)*reps+rep] = cfg
		}
	}
	outcomes, err := exp.MapScratch(ctx, len(cfgs), exp.Options{
		Workers:  opt.Workers,
		SeedOf:   func(i int) int64 { return cfgs[i].Seed },
		Progress: opt.Progress,
	}, func(int) *sim.EventPool {
		return sim.NewEventPool()
	}, func(ctx context.Context, i int, pool *sim.EventPool) (metrics.Outcome, error) {
		return runPooled(ctx, cfgs[i], pool)
	})
	if err != nil {
		return nil, err
	}
	points := make([]Fig4Point, 0, clusters)
	for c := 1; c <= clusters; c++ {
		batch := outcomes[(c-1)*reps : c*reps]
		points = append(points, Fig4Point{Cluster: c, Kind: kind, Summary: metrics.Aggregate(batch)})
	}
	return points, nil
}
