package scenario

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"blackdp/internal/fault"
	"blackdp/internal/trace"
)

// traceGoldenDigest pins the text of the event log over traceCorpus. It was
// recorded before the log became typed events, so it covers the log without
// the kinds that then were counted in the tally only (tallyOnly). Any drift
// means a step is described differently or happens at another time: a
// behaviour change, never a baseline to re-record.
const traceGoldenDigest = "b7d83c8a41b52f2adfe45e64c421c8c07454ae7bb6be0bab427597d6f2eef534"

// traceFullDigest pins the whole dump over traceCorpus, tally-only kinds
// included: the text the serve trace endpoint returns.
const traceFullDigest = "b7d91d6afede181e27b814803f6bd2a574ef6b1e1d0baac883cb61b631e2d9e6"

// traceRun is one traced replication of the pinned corpus.
type traceRun struct {
	name string
	cfg  Config
}

// traceCorpus is Table I under single and cooperative attacks in clusters
// 2 and 9 (evasive, as in Figure 4) for seeds 1-3, plus the runs that reach
// the rarer steps: head crashes with d_req retransmission, hand-off retries
// and failover, a lossy channel, plain AODV, forged probe replies, the
// single-probe ablation, a suspect that leaves mid-examination, severed
// backbone links, and a revoked attacker asking for a new pseudonym.
func traceCorpus() []traceRun {
	tableI := func(seed int64, kind AttackKind, cluster int) Config {
		cfg := DefaultConfig()
		cfg.Seed, cfg.Attack, cfg.AttackerCluster = seed, kind, cluster
		cfg.EvasiveClusters = []int{8, 9, 10}
		return cfg
	}
	var runs []traceRun
	for seed := int64(1); seed <= 3; seed++ {
		for _, kind := range []AttackKind{SingleBlackHole, CooperativeBlackHole} {
			for _, cluster := range []int{2, 9} {
				runs = append(runs, traceRun{fmt.Sprintf("table-i/%d/%v/%d", seed, kind, cluster), tableI(seed, kind, cluster)})
			}
		}
	}

	// The reporter's head dies for good and the attacker's head is down for
	// 30 s: the reporter retransmits and fails over, and the new head's
	// hand-off retries until the attacker's head recovers.
	crash := diffConfig()
	crash.AttackerCluster = 3
	crash.MaxSimTime = 60 * time.Second
	crash.Fault = CrashPlan(1, time.Second, 0)
	crash.Fault.HeadCrashes = append(crash.Fault.HeadCrashes,
		fault.HeadCrash{Cluster: 3, At: time.Second, RecoverAt: 30 * time.Second})
	runs = append(runs, traceRun{"crash", crash})

	lossyPrevented := tableI(1, SingleBlackHole, 5)
	lossyPrevented.LossRate = 0.2
	lossyProbe := tableI(7, SingleBlackHole, 10)
	lossyProbe.LossRate = 0.2
	aodv := tableI(1, SingleBlackHole, 2)
	aodv.Vehicle.Verify = false
	forged := tableI(1, SingleBlackHole, 2)
	forged.FakeHelloProb = 1
	singleProbe := tableI(1, SingleBlackHole, 2)
	singleProbe.Head.SingleProbe = true
	slowStages := tableI(5, SingleBlackHole, 2)
	slowStages.Head.StageDelay = 12 * time.Second
	// Severed backbone links: one strands a report's hand-off, the other
	// cuts a head off from its authority while an attacker renews.
	unreachable := tableI(1, SingleBlackHole, 8)
	unreachable.Fault.LinkCuts = []fault.LinkCut{{Link: 5, At: 2 * time.Second}}
	relay := tableI(3, CooperativeBlackHole, 9)
	relay.Fault.LinkCuts = []fault.LinkCut{{Link: 8, At: 2 * time.Second}}
	return append(runs,
		traceRun{"lossy/prevented", lossyPrevented},
		traceRun{"lossy/probe-unanswerable", lossyProbe},
		traceRun{"plain-aodv", aodv},
		traceRun{"forged-hello", forged},
		traceRun{"single-probe", singleProbe},
		traceRun{"slow-stages", slowStages},
		traceRun{"backbone-cut/unreachable", unreachable},
		traceRun{"backbone-cut/renewal-relay", relay},
		traceRun{"renewal-denied", tableI(3, SingleBlackHole, 8)},
	)
}

// tallyOnly are the kinds whose steps the tally counted before the log was
// typed, without a line in the log.
var tallyOnly = map[trace.Kind]bool{
	trace.ProbeReply: true, trace.VerdictRelayed: true, trace.VerdictDelivered: true,
	trace.IsolationPackets: true, trace.CaseResolved: true,
}

// TestTraceGoldenDigest pins the dumped event log of every corpus run, with
// and without the tally-only kinds, and holds the corpus to producing every
// kind.
func TestTraceGoldenDigest(t *testing.T) {
	h, full := sha256.New(), sha256.New()
	seen := make(map[trace.Kind]bool)
	for _, r := range traceCorpus() {
		cfg := r.cfg
		cfg.Trace = true
		w, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		w.Run()
		log := w.Env.Tracer.Snapshot()
		pinned := trace.Log{Dropped: log.Dropped}
		for _, e := range log.Events {
			seen[e.Kind] = true
			if !tallyOnly[e.Kind] {
				pinned.Events = append(pinned.Events, e)
			}
		}
		if err := pinned.Dump(h); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if err := log.Dump(full); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		w.Sched.Release()
	}
	if got := digest(h); got != traceGoldenDigest {
		t.Errorf("trace digest = %s, want %s", got, traceGoldenDigest)
	}
	if got := digest(full); got != traceFullDigest {
		t.Errorf("full trace digest = %s, want %s", got, traceFullDigest)
	}
	for k := trace.Verified; k < trace.NumKinds; k++ {
		if !seen[k] {
			t.Errorf("no corpus run produced kind %d (%q)", k, trace.Event{Kind: k}.String())
		}
	}
}
