package scenario

import (
	"context"
	"reflect"
	"testing"
	"time"

	"blackdp/internal/core"
	"blackdp/internal/fault"
)

// faultConfig is diffConfig with placement pinned so the fault schedule can
// target the reporter's head: the source starts in cluster 1, the attacker
// sits in cluster 2, and detection runs end to end in under a minute.
func faultConfig() Config {
	cfg := diffConfig()
	cfg.MaxSimTime = 60 * time.Second
	return cfg
}

// TestHeadCrashFailoverStillDetects is the tentpole acceptance scenario: the
// reporter's cluster head dies before the d_req can be answered and never
// comes back, yet the attacker is still convicted — the vehicle exhausts its
// retransmissions, fails over to the adjacent head, refiles, and the verdict
// arrives there.
func TestHeadCrashFailoverStillDetects(t *testing.T) {
	cfg := faultConfig()
	cfg.Fault = CrashPlan(1, time.Second, 0) // source's head, down for good
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := w.Run()
	if !o.Detected {
		t.Fatalf("attacker not detected despite failover path: %+v", o)
	}
	if got := w.Source.Stats().Failovers; got == 0 {
		t.Error("source never failed over; detection must have used the dead head")
	}
	var failoverJoins uint64
	for _, h := range w.Heads {
		failoverJoins += h.Membership().Stats().FailoverJoins
	}
	if failoverJoins == 0 {
		t.Error("no head admitted a failover join")
	}
	// The verdict can only arrive after the retry ladder ran its course
	// (the initial timeout, then one doubled backoff), so latency reflects
	// the outage.
	if o.DetectionLatency < 3*core.DReqTimeout {
		t.Errorf("detection latency %v too low for a crashed-head run", o.DetectionLatency)
	}
	if err := w.CheckConservation(); err != nil {
		t.Error(err)
	}
}

// TestHeadCrashRecoveryNeedsNoFailover pins the cheaper repair path: a short
// outage is bridged by d_req retransmission alone — the head is back before
// the retries run out, so no failover is attempted.
func TestHeadCrashRecoveryNeedsNoFailover(t *testing.T) {
	cfg := faultConfig()
	cfg.Fault = CrashPlan(1, time.Second, 5*time.Second)
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := w.Run()
	if !o.Detected {
		t.Fatalf("attacker not detected despite head recovery: %+v", o)
	}
	st := w.Source.Stats()
	if st.DReqRetransmits == 0 {
		t.Error("no d_req retransmission; the crash window cannot have been exercised")
	}
	if st.Failovers != 0 {
		t.Errorf("source failed over %d times; retransmission should have sufficed", st.Failovers)
	}
	if err := w.CheckConservation(); err != nil {
		t.Error(err)
	}
}

// TestRetryFailoverAblationDropsDetection shows the robustness machinery is
// load-bearing: the identical fault plan with retransmission and failover
// disabled (DReqRetries = -1) misses the attacker that the full protocol
// convicts in TestHeadCrashFailoverStillDetects.
func TestRetryFailoverAblationDropsDetection(t *testing.T) {
	cfg := faultConfig()
	cfg.Fault = CrashPlan(1, time.Second, 0)
	cfg.Vehicle.DReqRetries = -1
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := w.Run()
	if o.Detected {
		t.Fatalf("ablated protocol still detected the attacker; robustness is not load-bearing: %+v", o)
	}
	if got := w.Source.Stats().Failovers; got != 0 {
		t.Errorf("ablated vehicle failed over %d times", got)
	}
}

// TestBurstLossRunStaysConserved runs the full adversarial scenario under a
// harsh Gilbert–Elliott channel plus duplication and reordering, and audits
// the packet ledger: every injected impairment must account for its frames.
func TestBurstLossRunStaysConserved(t *testing.T) {
	cfg := faultConfig()
	cfg.Fault = BurstPlan(0.3, 0.1, 0.2)
	cfg.Fault.DuplicateProb = 0.05
	cfg.Fault.ReorderProb = 0.05
	cfg.Fault.ReorderMax = 5 * time.Millisecond
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := w.Run()
	if err := w.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if o.AirLost == 0 {
		t.Error("burst channel lost nothing; the plan cannot have been applied")
	}
	if o.AirDuplicated == 0 {
		t.Error("duplication enabled but no frame was duplicated")
	}
	if o.AirOffered != o.AirDelivered+o.AirLost {
		// In-flight copies at extraction time make up any gap; re-check via
		// the authoritative ledger rather than failing on the snapshot.
		if err := w.Env.Medium.Stats().CheckConservation(); err != nil {
			t.Errorf("offered %d != delivered %d + lost %d and ledger disagrees: %v",
				o.AirOffered, o.AirDelivered, o.AirLost, err)
		}
	}
}

// TestFaultSweepParallelMatchesSerial extends the engine's differential gate
// to fault-injected runs: a plan combining a head crash, a link cut, burst
// loss, duplication and reordering must yield byte-identical outcome records
// between the serial path and a saturated pool.
func TestFaultSweepParallelMatchesSerial(t *testing.T) {
	cfg := faultConfig()
	cfg.Fault = fault.Plan{
		HeadCrashes:   []fault.HeadCrash{{Cluster: 1, At: 2 * time.Second, RecoverAt: 12 * time.Second}},
		LinkCuts:      []fault.LinkCut{{Link: 2, At: 3 * time.Second, HealAt: 9 * time.Second}},
		Burst:         fault.BurstLoss{LossBad: 0.15, GoodToBad: 0.05, BadToGood: 0.3},
		DuplicateProb: 0.02,
		ReorderProb:   0.02,
		ReorderMax:    2 * time.Millisecond,
	}
	const reps = 4
	serial, err := RunSweep(context.Background(), cfg, 0, reps, SweepOptions{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(context.Background(), cfg, 0, reps, SweepOptions{Workers: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("fault-injected outcomes diverged between workers=1 and workers=8:\n serial   %+v\n parallel %+v", serial, parallel)
	}
}

// TestLossySweepParallelMatchesSerial is the satellite regression for the
// WithLossRate audit: uniform channel loss draws from the per-run seeded
// radio stream, so lossy sweeps must also be worker-count invariant.
func TestLossySweepParallelMatchesSerial(t *testing.T) {
	cfg := diffConfig()
	cfg.LossRate = 0.05
	const reps = 3
	serial, err := RunSweep(context.Background(), cfg, 0, reps, SweepOptions{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(context.Background(), cfg, 0, reps, SweepOptions{Workers: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("lossy outcomes diverged between workers=1 and workers=8:\n serial   %+v\n parallel %+v", serial, parallel)
	}
}

// TestFaultPlanValidationInConfig checks Config.Validate delegates to the
// plan validator with the highway's real cluster count.
func TestFaultPlanValidationInConfig(t *testing.T) {
	cfg := faultConfig() // 4 clusters
	cfg.Fault = CrashPlan(5, time.Second, 0)
	if err := cfg.Validate(); err == nil {
		t.Error("crash targeting a cluster past the highway end accepted")
	}
	cfg.Fault = fault.Plan{LinkCuts: []fault.LinkCut{{Link: 4, At: time.Second}}}
	if err := cfg.Validate(); err == nil {
		t.Error("cut of a non-existent backbone link accepted")
	}
	cfg.Fault = CrashPlan(2, 2*time.Second, time.Second)
	if err := cfg.Validate(); err == nil {
		t.Error("recovery before crash accepted")
	}
}
