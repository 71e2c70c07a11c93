package scenario

import (
	"context"
	"fmt"
	"time"

	"blackdp/internal/aodv"
	"blackdp/internal/attack"
	"blackdp/internal/baseline"
	"blackdp/internal/core"
	"blackdp/internal/exp"
	"blackdp/internal/metrics"
	"blackdp/internal/pki"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// DetectorScore aggregates a detector's performance over repeated runs.
type DetectorScore struct {
	Name       string
	Runs       int
	Hits       int // attacker flagged
	Misses     int // attacker present, not flagged
	FalsePos   int // innocent issuers flagged
	NoDecision int // detector had nothing to decide on (e.g. single reply)
}

// HitRate returns Hits / Runs.
func (s DetectorScore) HitRate() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Runs)
}

func (s DetectorScore) String() string {
	return fmt.Sprintf("%-24s hits=%d/%d fp=%d undecided=%d",
		s.Name, s.Hits, s.Runs, s.FalsePos, s.NoDecision)
}

// compareEvidence is one replication's raw material for detector scoring:
// the discovery replies the source collected (for the sequence-number
// heuristics) and BlackDP's outcome on an identical world.
type compareEvidence struct {
	candidates []aodv.Candidate
	attackerID wire.NodeID
	outcome    metrics.Outcome
}

// discoverEvidence builds cfg's world on pool and records the raw discovery
// view the sequence-number heuristics score: the replies the source
// collects for one route discovery. The world's pending events go back to
// pool when it is done.
func discoverEvidence(cfg Config, pool *sim.EventPool, memo *pki.Memo, ref reference) (compareEvidence, error) {
	w, err := buildPooled(cfg, pool, memo, ref)
	if err != nil {
		return compareEvidence{}, err
	}
	defer w.Sched.Release()
	ev := compareEvidence{}
	if w.Attacker != nil {
		ev.attackerID = w.Attacker.NodeID()
	}
	w.Sched.RunFor(1500 * time.Millisecond) // joins settle
	var got *aodv.DiscoverResult
	err = w.Source.Router().Discover(w.Destination.NodeID(),
		func(res aodv.DiscoverResult) { got = &res })
	if err != nil {
		return compareEvidence{}, err
	}
	w.Sched.RunFor(5 * time.Second)
	if got == nil {
		return compareEvidence{}, fmt.Errorf("scenario: discovery never completed (seed %d)", cfg.Seed)
	}
	ev.candidates = got.Candidates
	return ev, nil
}

// CompareDetectors runs reps Table-I scenarios and scores the related-work
// sequence-number detectors on the source's raw discovery replies, alongside
// BlackDP's behavioural detection on the same worlds. The expensive part —
// building and running two worlds per replication — fans out across the
// pool; the detector evaluation then folds serially in replication order,
// because the dynamic-peak baseline is deliberately stateful across
// discoveries and must see them in the same order as the serial path.
func CompareDetectors(ctx context.Context, cfg Config, reps int, opt SweepOptions) ([]DetectorScore, error) {
	cfg = cfg.withDefaults()
	seedOf := func(rep int) int64 { return cfg.Seed + int64(rep)*104729 }
	// Each replication builds two worlds of one seed (the discovery world
	// and BlackDP's run), so an ECDSA comparison always has twins to share.
	memo := sweepMemo(opt, []Config{cfg, cfg})
	evidence, err := exp.MapScratch(ctx, reps, exp.Options{
		Workers: opt.Workers,
		SeedOf:  seedOf,
		OnRep:   opt.OnRep,
	}, opt.workerPool, func(ctx context.Context, rep int, pool *sim.EventPool) (compareEvidence, error) {
		runCfg := cfg
		runCfg.Seed = seedOf(rep)

		// The two worlds of one replication run back to back on this
		// worker, so they share its event pool; they mint the same
		// credentials, so the memo spares the second world most crypto.
		ev, err := discoverEvidence(runCfg, pool, memo, opt.ref)
		if err != nil {
			return compareEvidence{}, err
		}
		// BlackDP's verdict on an identical world.
		if ev.outcome, err = runPooled(ctx, runCfg, pool, memo, opt.ref); err != nil {
			return compareEvidence{}, err
		}
		return ev, nil
	})
	if err != nil {
		return nil, err
	}

	detectors := baseline.All()
	scores := make([]DetectorScore, len(detectors)+1)
	for i, d := range detectors {
		scores[i].Name = d.Name()
	}
	scores[len(detectors)].Name = "blackdp"
	for _, ev := range evidence {
		for i, d := range detectors {
			scores[i].Runs++
			if len(ev.candidates) < 2 {
				if _, isFirst := d.(baseline.FirstReply); isFirst {
					scores[i].NoDecision++
					scores[i].Misses++
					continue
				}
			}
			e := baseline.Evaluate(d, ev.candidates, ev.attackerID)
			if e.Hit {
				scores[i].Hits++
			} else if ev.attackerID != 0 {
				scores[i].Misses++
			}
			scores[i].FalsePos += e.FalsePos
		}
		idx := len(detectors)
		scores[idx].Runs++
		switch {
		case ev.outcome.Detected:
			scores[idx].Hits++
		case ev.outcome.AttackerPresent:
			scores[idx].Misses++
		}
		scores[idx].FalsePos += ev.outcome.FalseAccusations
	}
	return scores, nil
}

// ConnectorResult reports the paper's connector case: the attacker is the
// only bridge between two disconnected highway segments, so the source
// receives exactly one (forged) route reply.
type ConnectorResult struct {
	Replies         int             // replies the source's discovery collected
	BaselineFlagged map[string]bool // detector name -> attacker flagged
	BlackDPDetected bool
}

// RunConnector builds the connector topology with the given forged-sequence
// inflation and compares every detector. Low inflation (e.g. 30) defeats
// all magnitude-based baselines; BlackDP's probing is magnitude-blind.
func RunConnector(seed int64, seqBonus wire.SeqNum) (ConnectorResult, error) {
	w, err := newMiniWorld(seed)
	if err != nil {
		return ConnectorResult{}, err
	}
	sched := w.sched
	// Only clusters 1 and 2 are RSU-equipped — the paper notes the highway
	// need not be fully covered. The destination sits in the uncovered
	// stretch, so no RSU can relay to it and the attacker really is the
	// sole bridge.
	for _, c := range []wire.ClusterID{1, 2} {
		if _, err := w.head(c, core.HeadConfig{}); err != nil {
			return ConnectorResult{}, err
		}
	}

	// Source at 800, attacker at 1700, destination at 2600: adjacent pairs
	// are in range (900 m); source-destination is not (1800 m); and neither
	// equipped RSU (at 500 and 1500) can reach the destination. The
	// attacker bridges the partition and its forged reply is the only one
	// the source ever receives.
	source, err := w.vehicle("source", 800, 14)
	if err != nil {
		return ConnectorResult{}, err
	}
	attacker, err := w.vehicle("attacker", 1700, 14)
	if err != nil {
		return ConnectorResult{}, err
	}
	dest, err := w.vehicle("dest", 2600, 14)
	if err != nil {
		return ConnectorResult{}, err
	}

	profile := attack.DefaultProfile()
	profile.SeqBonus = seqBonus
	armBlackhole(attacker, profile, attackEnv(w.env, attacker, w.rng.Split("attacker")))

	sched.RunFor(1500 * time.Millisecond)

	// Raw discovery for the baselines. The destination is radio-unreachable
	// (the black hole does not forward floods), so the forged reply is the
	// only candidate the source ever sees.
	var raw *aodv.DiscoverResult
	if err := source.Router().Discover(dest.NodeID(), func(r aodv.DiscoverResult) { raw = &r }); err != nil {
		return ConnectorResult{}, err
	}
	sched.RunFor(5 * time.Second)
	if raw == nil {
		return ConnectorResult{}, fmt.Errorf("scenario: connector discovery never completed")
	}
	res := ConnectorResult{
		Replies:         len(raw.Candidates),
		BaselineFlagged: make(map[string]bool),
	}
	for _, d := range baseline.All() {
		ev := baseline.Evaluate(d, raw.Candidates, attacker.NodeID())
		res.BaselineFlagged[d.Name()] = ev.Hit
	}

	// BlackDP's verified establishment on the same world.
	var done *core.EstablishResult
	if err := source.EstablishRoute(dest.NodeID(), func(r core.EstablishResult) { done = &r }); err != nil {
		return ConnectorResult{}, err
	}
	deadline := sched.Now() + 40*time.Second
	for done == nil && sched.Now() < deadline && sched.Pending() > 0 {
		sched.Step()
	}
	if done != nil && done.Status == core.StatusDetected {
		res.BlackDPDetected = true
	}
	return res, nil
}
