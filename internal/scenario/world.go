package scenario

import (
	"context"
	"fmt"
	"sync"
	"time"

	"blackdp/internal/aodv"
	"blackdp/internal/attack"
	"blackdp/internal/cluster"
	"blackdp/internal/core"
	"blackdp/internal/exp"
	"blackdp/internal/fault"
	"blackdp/internal/metrics"
	"blackdp/internal/mobility"
	"blackdp/internal/pki"
	"blackdp/internal/radio"
	"blackdp/internal/sim"
	"blackdp/internal/trace"
	"blackdp/internal/wire"
)

// shardStrips is the number of non-anchor strip shards in a sharded run
// (Config.RunWorkers >= 2). It is fixed — never derived from the worker
// count — so sharded outcomes are independent of how many workers execute
// them: workers decide only which OS thread runs a strip, never what the
// strip observes.
const shardStrips = 8

// shardLookahead is the conservative window length of a sharded run: a lower
// bound on the virtual latency of every cross-shard interaction. Shards
// interact only through the radio medium, whose per-copy delay is at least
// the frame's airtime (transmission delay; propagation and jitter only add).
// The smallest wire packet is well over 8 bytes, so 64 bits at the 6 Mb/s
// DSRC bitrate — 10666ns, floored to stay a lower bound — is safe for every
// frame. The radio layer panics on any cross-shard post that would land
// inside the window, so a wrong bound fails loudly, never silently.
const shardLookahead = 10666 * time.Nanosecond

// World is one fully constructed simulation: infrastructure, population,
// adversary and workload, ready to Run.
type World struct {
	Cfg   Config
	Env   core.Env
	Sched *sim.Scheduler
	// Topo is the road layout: a *mobility.Highway for "highway", a
	// *mobility.RoadMesh otherwise.
	Topo        mobility.Topology
	Authorities []*core.AuthorityAgent
	Heads       map[wire.ClusterID]*core.HeadAgent
	Vehicles    []*core.VehicleAgent

	Source      *core.VehicleAgent
	Destination *core.VehicleAgent
	Attacker    *core.VehicleAgent
	Teammate    *core.VehicleAgent
	AttackerBH  *attack.Blackhole
	TeammateBH  *attack.Blackhole
	// Extras are the additional independent black holes, when
	// Config.ExtraAttackers > 0.
	Extras []*Hostile

	attackerIDs map[wire.NodeID]bool // every pseudonym the primary attacker held
	teammateIDs map[wire.NodeID]bool

	rng    *sim.RNG
	vehSeq int

	// Sharded execution (Config.RunWorkers >= 2). shard is the conservative
	// PDES executor; ports are the per-sim-shard radio contexts, indexed like
	// the executor's shards (0 = anchor). Both nil/empty on the serial path.
	// fillers flips once the named protocol participants are placed: from
	// then on new vehicles home on their initial cluster's strip shard.
	shard   *sim.Sharded
	ports   []*radio.Shard
	fillers bool
}

// Hostile bundles one extra attacker with its interceptor and the pseudonym
// history needed to attribute verdicts after renewals.
type Hostile struct {
	Agent *core.VehicleAgent
	BH    *attack.Blackhole
	ids   map[wire.NodeID]bool
}

// Detected reports whether any of the hostile's identities was convicted in
// the tally.
func (h *Hostile) detectedIn(t *core.Tally) bool {
	for _, ct := range t.Cases() {
		if ct.Verdict == wire.VerdictMalicious && h.ids[ct.Suspect] {
			return true
		}
	}
	return false
}

// Build constructs the world for cfg without running it.
func Build(cfg Config) (*World, error) {
	return buildPooled(cfg, nil, nil, reference{})
}

// ecdsaScheme spends rng's "crypto" split and returns the ECDSA scheme over
// memo. A world that no sweep hands a memo gets its own, which catches the
// certificates its agents verify again and again; ref.directCrypto keeps
// the memo nil, so every signature and verification is computed.
// Signatures are deterministic (RFC 6979) and draw nothing, but every later
// split of rng depends on this draw, so it stays: dropping it would change
// every seed's run.
func ecdsaScheme(rng *sim.RNG, memo *pki.Memo, ref reference) pki.Scheme {
	rng.Split("crypto")
	if memo == nil && !ref.directCrypto {
		memo = pki.NewMemo()
	}
	return pki.ECDSA{Memo: memo}
}

// sweepMemo returns the crypto memo one sweep's worlds share: opt's own
// memo when a test set one, else a fresh memo when two of cfgs sign with
// ECDSA under the same seed, else nil. Worlds that share a seed mint the
// same credentials and sign and verify many of the same messages (the
// Figure 4 grid runs each replication seed in every attacker cluster).
// Worlds with distinct seeds share almost nothing, so in a sweep of them —
// every replicate-based sweep — each world keeps its own small memo (see
// ecdsaScheme) instead of sharing a lock and up to a full memo's entries
// for few hits. The memo lives as long as the sweep, so the process holds
// no crypto state between jobs.
func sweepMemo(opt SweepOptions, cfgs []Config) *pki.Memo {
	if opt.ref.directCrypto {
		return nil
	}
	if opt.memo != nil {
		return opt.memo
	}
	seeds := make(map[int64]bool, len(cfgs))
	for _, c := range cfgs {
		if c = c.withDefaults(); c.CryptoScheme != SchemeECDSA {
			continue
		}
		if seeds[c.Seed] {
			return pki.NewMemo()
		}
		seeds[c.Seed] = true
	}
	return nil
}

// reference selects the retained reference implementations that the
// differential tests hold the production paths against. Both are
// byte-for-bit invisible, so they are build arguments rather than Config
// fields: they never reach a fingerprint, a request body or a flag. Every
// production caller passes the zero value.
type reference struct {
	// linearScan resolves radio neighbours by the O(N) scan instead of the
	// grid-hash spatial index.
	linearScan bool
	// directCrypto gives a world no crypto memo, neither a sweep's shared
	// one nor its own, so every signature and verification is computed.
	directCrypto bool
}

// buildTopology constructs the road layout cfg selects.
func buildTopology(cfg Config) (mobility.Topology, error) {
	switch cfg.Topology {
	case "", "highway":
		return mobility.NewHighway(cfg.HighwayLengthM, cfg.HighwayWidthM, cfg.ClusterLengthM)
	case "grid":
		return mobility.NewGridCity(cfg.GridRows, cfg.GridCols, cfg.ClusterLengthM, cfg.HighwayWidthM)
	case "multi":
		return mobility.NewMultiHighway(cfg.HighwayCount, cfg.HighwayLengthM, cfg.HighwayWidthM, cfg.HighwayGapM, cfg.ClusterLengthM)
	case "interchange":
		return mobility.NewInterchange(cfg.HighwayLengthM, cfg.HighwayWidthM, cfg.ClusterLengthM)
	default:
		return nil, fmt.Errorf("scenario: unknown topology %q", cfg.Topology)
	}
}

// buildPooled is Build with a shared event pool for the scheduler, a shared
// crypto memo for an ECDSA world, and the reference paths ref selects.
// Sweep workers pass their per-worker pool so consecutive replications
// reuse one warmed free list, and the sweep's memo; a nil pool gives the
// scheduler a private pool and a nil memo gives an ECDSA world its own,
// which is exactly Build. Pooling and the memo must stay invisible to outcomes — the
// differential and golden-hash tests in this package enforce that. A build
// that fails releases what it scheduled; a caller done with the world it
// returns calls w.Sched.Release.
func buildPooled(cfg Config, pool *sim.EventPool, memo *pki.Memo, ref reference) (*World, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ref.linearScan && cfg.RunWorkers >= 2 {
		return nil, fmt.Errorf("scenario: RunWorkers=%d requires the spatial index, not the linear scan", cfg.RunWorkers)
	}
	topo, err := buildTopology(cfg)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	var (
		sched *sim.Scheduler
		shard *sim.Sharded
	)
	if cfg.RunWorkers >= 2 {
		// Cluster-sharded conservative PDES: shard 0 anchors every agent that
		// touches run-global state, shards 1..shardStrips carry contiguous
		// strips of filler vehicles. The anchor's scheduler doubles as the
		// world's build-time clock; every shard clock starts (and stays, at
		// window barriers) in lockstep with it.
		shard = sim.NewSharded(shardLookahead, 1+shardStrips, cfg.RunWorkers)
		sched = shard.Anchor().Scheduler()
	} else {
		sched = sim.NewSchedulerWithPool(pool)
	}

	var scheme pki.Scheme = pki.Insecure{}
	switch cfg.CryptoScheme {
	case SchemeECDSA:
		scheme = ecdsaScheme(rng, memo, ref)
	case SchemeSession:
		// One shared instance models the epoch key-agreement channel; it
		// is mutex-guarded, and its anchor signatures are deterministic, so
		// both serial and sharded outcomes stay deterministic.
		rng.Split("crypto") // spent, as in ecdsaScheme
		scheme = pki.NewSessionToken()
	}
	var tracer *trace.Recorder
	if cfg.Trace {
		tracer = trace.NewRecorder()
	}
	radioOpts := []radio.Option{radio.WithRange(cfg.TxRangeM), radio.WithLossRate(cfg.LossRate)}
	if ref.linearScan {
		radioOpts = append(radioOpts, radio.WithLinearScan())
	}
	if cfg.Fault.Burst.Enabled() {
		b := cfg.Fault.Burst
		radioOpts = append(radioOpts, radio.WithBurstLoss(b.LossGood, b.LossBad, b.GoodToBad, b.BadToGood))
	}
	if cfg.Fault.DuplicateProb > 0 {
		radioOpts = append(radioOpts, radio.WithDuplication(cfg.Fault.DuplicateProb))
	}
	if cfg.Fault.ReorderProb > 0 {
		radioOpts = append(radioOpts, radio.WithReordering(cfg.Fault.ReorderProb, cfg.Fault.ReorderMax))
	}
	// Split order is part of the serial byte-identity contract: crypto (when
	// real), core, radio — exactly the historical sequence.
	coreRNG := rng.Split("core")
	medium := radio.NewMedium(sched, rng.Split("radio"), radioOpts...)
	var ports []*radio.Shard
	if shard != nil {
		// One radio context per sim shard, registered before any device
		// attaches. Per-shard RNG streams are split serially here, so they
		// are a pure function of the seed and the (fixed) shard count.
		for i := 0; i < shard.Shards(); i++ {
			sh := shard.Shard(i)
			ports = append(ports, medium.AddShard(sh, rng.Split(fmt.Sprintf("radio-shard-%d", i))))
		}
		// Windows read the spatial index lock-free; the barrier brings it up
		// to the window end before any shard starts (refreshing slightly
		// ahead is safe — see Medium.RefreshIndex).
		shard.OnWindow(func(_, we time.Duration) { medium.RefreshIndex(we) })
	}
	if shard != nil && cfg.CryptoScheme == SchemeECDSA {
		// Spent splits, as in ecdsaScheme: the attacker splits made later
		// depend on them.
		for i := 0; i < shard.Shards(); i++ {
			rng.Split(fmt.Sprintf("crypto-shard-%d", i))
		}
	}
	env := core.Env{
		Sched:    sched,
		RNG:      coreRNG,
		Trust:    pki.NewTrustStore(),
		Scheme:   scheme,
		Dir:      cluster.NewDirectory(),
		Highway:  topo,
		Medium:   medium,
		Backbone: radio.NewBackbone(sched, cfg.BackboneLatency),
		Tracer:   tracer,
		Tally:    core.NewTally(),
	}
	if shard != nil {
		env.Port = ports[0]
	}
	w := &World{
		Cfg:         cfg,
		Env:         env,
		Sched:       sched,
		Topo:        topo,
		Heads:       make(map[wire.ClusterID]*core.HeadAgent),
		attackerIDs: make(map[wire.NodeID]bool),
		teammateIDs: make(map[wire.NodeID]bool),
		rng:         rng,
		shard:       shard,
		ports:       ports,
	}
	if err := w.buildInfrastructure(); err != nil {
		sched.Release()
		return nil, err
	}
	if err := w.buildPopulation(); err != nil {
		sched.Release()
		return nil, err
	}
	// Timed faults go on the same deterministic event queue as everything
	// else; channel impairments were already baked into the medium above.
	fault.Schedule(sched, cfg.Fault, fault.Targets{
		CrashHead:   func(c int) { w.Heads[wire.ClusterID(c)].Crash() },
		RecoverHead: func(c int) { w.Heads[wire.ClusterID(c)].Recover() },
		CutLink:     func(l int) { env.Backbone.CutLink(l) },
		HealLink:    func(l int) { env.Backbone.HealLink(l) },
	})
	return w, nil
}

// CheckConservation audits the packet ledgers of both channels: every frame
// copy offered to the radio medium or the backbone must end up delivered,
// lost, or still in flight. Property and differential tests call it after a
// run; a non-nil error means the simulation leaked or invented traffic.
func (w *World) CheckConservation() error {
	if err := w.Env.Medium.Stats().CheckConservation(); err != nil {
		return err
	}
	return w.Env.Backbone.Stats().CheckConservation()
}

// buildInfrastructure creates the TAs and one head per cluster.
func (w *World) buildInfrastructure() error {
	clusters := w.Topo.Clusters()
	per := (clusters + w.Cfg.Authorities - 1) / w.Cfg.Authorities
	for a := 0; a < w.Cfg.Authorities; a++ {
		lo := a*per + 1
		hi := lo + per - 1
		if hi > clusters {
			hi = clusters
		}
		if lo > clusters {
			break
		}
		var served []wire.ClusterID
		for c := lo; c <= hi; c++ {
			served = append(served, wire.ClusterID(c))
		}
		ta, err := core.NewAuthorityAgent(w.Env, wire.AuthorityID(a+1), (lo+hi)/2, served, w.Cfg.CertValidity)
		if err != nil {
			return err
		}
		w.Authorities = append(w.Authorities, ta)
	}
	peers := make([]wire.NodeID, 0, len(w.Authorities))
	for _, ta := range w.Authorities {
		peers = append(peers, ta.NodeID())
	}
	for _, ta := range w.Authorities {
		ta.SetPeers(peers)
	}
	for c := 1; c <= clusters; c++ {
		cid := wire.ClusterID(c)
		ta := w.authorityFor(cid)
		cred, err := ta.IssueHeadCredential(cid)
		if err != nil {
			return err
		}
		head, err := core.NewHeadAgent(w.Env, w.Cfg.Head, cred, cid)
		if err != nil {
			return err
		}
		head.Start()
		w.Heads[cid] = head
	}
	return nil
}

func (w *World) authorityFor(c wire.ClusterID) *core.AuthorityAgent {
	clusters := w.Topo.Clusters()
	per := (clusters + w.Cfg.Authorities - 1) / w.Cfg.Authorities
	idx := (int(c) - 1) / per
	if idx >= len(w.Authorities) {
		idx = len(w.Authorities) - 1
	}
	return w.Authorities[idx]
}

// buildPopulation places the source, destination, attacker(s) and filler
// vehicles per the paper's experiment setup, in per-road travel coordinates:
// one routine serves every topology, the paper's highway being a one-road
// Topology.
func (w *World) buildPopulation() error {
	clusters := w.Topo.Clusters()
	roads := w.Topo.Roads()
	attackCluster := w.Cfg.AttackerCluster
	if attackCluster == 0 {
		attackCluster = w.rng.IntN(clusters) + 1
	}
	w.Cfg.AttackerCluster = attackCluster

	// Source near the start of the first road: the beginning of the highway
	// (paper SIV-A).
	r0 := roads[0]
	sLo, sHi := r0.Lo+50, r0.Lo+450
	if sHi > r0.Hi-10 {
		sHi = r0.Hi - 10
	}
	if sHi < sLo {
		sLo, sHi = r0.Lo, r0.Hi
	}
	src, err := w.addVehicle(0, w.rng.Range(sLo, sHi), w.randomSpeed(), mobility.Eastbound)
	if err != nil {
		return err
	}
	w.Source = src

	// Destination several clusters away from the attacker (in strip-major
	// numbering on a mesh), never in its radio range at placement.
	destCluster := attackCluster + 3
	if destCluster > clusters {
		destCluster = attackCluster - 3
	}
	if destCluster < 1 {
		destCluster = 1
	}
	dri, da := w.spawnAlong(destCluster, 100, 100)
	dest, err := w.addVehicle(dri, da, w.randomSpeed(), mobility.Eastbound)
	if err != nil {
		return err
	}
	w.Destination = dest

	if w.Cfg.Attack != NoAttack {
		if err := w.placeAttackers(attackCluster); err != nil {
			return err
		}
		if err := w.placeExtraAttackers(destCluster); err != nil {
			return err
		}
	}

	// Filler traffic, both directions, uniform over the roads.
	w.fillers = true
	for len(w.Vehicles) < w.Cfg.Vehicles {
		dir := mobility.Eastbound
		if w.rng.Bool(0.5) {
			dir = mobility.Westbound
		}
		// A one-road topology draws no road index: IntN(1) still consumes
		// a draw and would shift every later one on the paper's highway.
		ri := 0
		if len(roads) > 1 {
			ri = w.rng.IntN(len(roads))
		}
		r := roads[ri]
		if _, err := w.addVehicle(ri, w.rng.Range(r.Lo+10, r.Hi-10), w.randomSpeed(), dir); err != nil {
			return err
		}
	}

	for _, v := range w.Vehicles {
		v.Start()
	}
	return nil
}

func (w *World) randomSpeed() float64 {
	return mobility.KmhToMs(w.rng.Range(w.Cfg.SpeedMinKmh, w.Cfg.SpeedMaxKmh))
}

// vehicleEnv returns the Env a new vehicle starting in cluster cid is built
// with. Serial builds hand every agent the world Env verbatim. Sharded
// builds home the named protocol participants (source, destination,
// attackers — everything placed before the filler phase) on the anchor,
// where their infrastructure interactions stay race-free, and each filler on
// the strip shard owning its initial cluster: contiguous clusters share a
// strip, so neighbours mostly stay local and only radio traffic crosses
// shards.
func (w *World) vehicleEnv(cid wire.ClusterID) core.Env {
	env := w.Env
	if w.shard == nil || !w.fillers {
		return env
	}
	clusters := w.Topo.Clusters()
	strip := 1 + (int(cid)-1)*shardStrips/clusters
	if strip < 1 {
		strip = 1
	} else if strip > shardStrips {
		strip = shardStrips
	}
	env.Sched = w.shard.Shard(strip)
	env.Port = w.ports[strip]
	return env
}

// runFor advances the run by d of virtual time on whichever executor the
// build chose. All shard clocks (the anchor's included) sit at the same
// instant when it returns, so w.Sched.Now() is the run's time in both modes.
func (w *World) runFor(d time.Duration) {
	if w.shard != nil {
		w.shard.RunFor(d)
		return
	}
	w.Sched.RunFor(d)
}

// hostileProfile builds the attack profile the config describes. It draws no
// RNG.
func (w *World) hostileProfile() attack.Profile {
	profile := attack.DefaultProfile()
	if w.Cfg.SeqBonus != 0 {
		profile.SeqBonus = w.Cfg.SeqBonus
	}
	profile.ActLegitProb = w.Cfg.ActLegitProb
	profile.RenewProb = w.Cfg.RenewProb
	profile.FakeHelloReplyProb = w.Cfg.FakeHelloProb
	return profile
}

// clusterAlong returns cluster c's owning road and its travel extent along
// that road's axis.
func (w *World) clusterAlong(c int) (ri int, lo, hi float64) {
	ri = w.Topo.ClusterRoad(c)
	rect := w.Topo.ClusterRect(c)
	if w.Topo.Roads()[ri].Axis == mobility.AxisY {
		return ri, rect.Y0, rect.Y1
	}
	return ri, rect.X0, rect.X1
}

// spawnAlong draws a travel coordinate inside cluster c, keeping the given
// margins from its edges when the segment is long enough.
func (w *World) spawnAlong(c int, loMargin, hiMargin float64) (int, float64) {
	ri, lo, hi := w.clusterAlong(c)
	a, b := lo+loMargin, hi-hiMargin
	if b < a {
		a, b = lo, hi
	}
	return ri, w.rng.Range(a, b)
}

// addVehicle provisions a credential from the region's TA and constructs a
// legitimate vehicle agent (not yet started) travelling along road ri from
// the given coordinate. It drives in one of four lanes at 10, 30, 50 or 70%
// of the road's width: 20, 60, 100 or 140 m on the paper's 200 m highway.
func (w *World) addVehicle(ri int, along, speedMS float64, dir mobility.Direction) (*core.VehicleAgent, error) {
	w.vehSeq++
	road := w.Topo.Roads()[ri]
	lane := road.CLo + (road.CHi-road.CLo)*float64(2*w.rng.IntN(4)+1)/10
	pos := road.At(along, lane)
	cid := wire.ClusterID(w.Topo.ClusterOf(pos))
	cred, err := w.authorityFor(cid).IssueVehicleCredential(fmt.Sprintf("veh-%d", w.vehSeq))
	if err != nil {
		return nil, err
	}
	mob, err := mobility.NewMobileOnRoad(w.Topo, road, pos, dir, speedMS, w.Sched.Now())
	if err != nil {
		return nil, err
	}
	v, err := core.NewVehicleAgent(w.vehicleEnv(cid), w.Cfg.Vehicle, cred, mob)
	if err != nil {
		return nil, err
	}
	w.Vehicles = append(w.Vehicles, v)
	return v, nil
}

// placeAttackers creates the black hole (and accomplice) in the configured
// cluster, per the paper's placement rules.
func (w *World) placeAttackers(attackCluster int) error {
	ri, ax := w.spawnAlong(attackCluster, 100, 200)
	attacker, err := w.addVehicle(ri, ax, w.randomSpeed(), mobility.Eastbound)
	if err != nil {
		return err
	}
	w.Attacker = attacker
	w.attackerIDs[attacker.NodeID()] = true
	attacker.OnRenewed(func(old, new wire.NodeID) { w.attackerIDs[new] = true })

	profile := w.hostileProfile()
	if attackCluster == w.Topo.Clusters() || w.Topo.ClusterRoad(attackCluster+1) != ri {
		// The paper's fleeing attackers escape from the last cluster (of
		// their road, on a mesh).
		profile.FleeProb = w.Cfg.FleeProb
	}

	if w.Cfg.Attack == CooperativeBlackHole {
		road := w.Topo.Roads()[ri]
		tx := ax + w.rng.Range(200, 400)
		if tx > road.Hi-10 {
			tx = road.Hi - 10
		}
		teammate, err := w.addVehicle(ri, tx, w.randomSpeed(), mobility.Eastbound)
		if err != nil {
			return err
		}
		w.Teammate = teammate
		w.teammateIDs[teammate.NodeID()] = true
		teammate.OnRenewed(func(old, new wire.NodeID) { w.teammateIDs[new] = true })
		tp := profile
		tp.SupportOnly = true
		tp.Teammate = 0
		w.TeammateBH = w.arm(teammate, tp)
		profile.Teammate = teammate.NodeID()
	}
	w.AttackerBH = w.arm(attacker, profile)
	return nil
}

// placeExtraAttackers adds independent single black holes in random
// clusters away from the destination.
func (w *World) placeExtraAttackers(destCluster int) error {
	clusters := w.Topo.Clusters()
	for i := 0; i < w.Cfg.ExtraAttackers; i++ {
		c := w.rng.IntN(clusters) + 1
		if c == destCluster {
			c = c%clusters + 1
		}
		ri, ax := w.spawnAlong(c, 100, 100)
		v, err := w.addVehicle(ri, ax, w.randomSpeed(), mobility.Eastbound)
		if err != nil {
			return err
		}
		h := &Hostile{Agent: v, ids: map[wire.NodeID]bool{v.NodeID(): true}}
		v.OnRenewed(func(old, new wire.NodeID) { h.ids[new] = true })
		h.BH = w.arm(v, w.hostileProfile())
		w.Extras = append(w.Extras, h)
	}
	return nil
}

// arm wires a hostile interceptor in front of a vehicle's radio. Evasion is
// drawn only after the first forged reply (the paper's attackers evade
// during detection, not before attacking) and only inside the configured
// evasive clusters.
func (w *World) arm(v *core.VehicleAgent, profile attack.Profile) *attack.Blackhole {
	evasive := make(map[int]bool, len(w.Cfg.EvasiveClusters))
	for _, c := range w.Cfg.EvasiveClusters {
		evasive[c] = true
	}
	var bh *attack.Blackhole
	profile.EvasiveWhen = func() bool {
		if bh == nil || bh.Stats().RepliesForged == 0 {
			return false
		}
		return evasive[v.Mobile().ClusterAt(w.Sched.Now())]
	}
	env := attackEnv(w.Env, v, w.rng.Split("attacker-"+v.NodeID().String()))
	env.Flee = func() { v.Mobile().Exit(w.Sched.Now()) }
	env.Renew = func() { _ = v.RenewCertificate() }
	bh = armBlackhole(v, profile, env)
	return bh
}

// Run executes the workload and extracts the outcome.
func (w *World) Run() metrics.Outcome {
	o, _ := w.RunContext(context.Background())
	return o
}

// RunContext is Run with cooperative cancellation: between simulated slices
// it checks ctx and, once cancelled, abandons the run and returns ctx.Err().
// A background context reproduces Run exactly — the checks never touch the
// scheduler or the RNG, so cancellation-capable and plain runs stay
// byte-identical (the differential suite holds this).
func (w *World) RunContext(ctx context.Context) (metrics.Outcome, error) {
	const (
		establishAt = 1500 * time.Millisecond
		dataGap     = 100 * time.Millisecond
		grace       = 3 * time.Second
	)
	var (
		finalStatus   core.EstablishStatus
		statusKnown   bool
		dataSent      int
		dataDelivered int
		workDone      bool
	)
	w.Destination.OnDataReceived(func(*wire.Data, wire.NodeID) { dataDelivered++ })

	// The workload behaves like a real application over AODV: verify a
	// route, stream packets, and on a broken link (or a detected attack)
	// re-establish — within a bounded budget — and resume.
	remaining := w.Cfg.DataPackets
	budget := 4
	var establish func()
	var pump func()
	pump = func() {
		if remaining <= 0 {
			workDone = true
			return
		}
		if err := w.Source.SendData(w.Destination.NodeID(), []byte("telemetry")); err != nil {
			establish() // mobility broke the route; find a new one
			return
		}
		dataSent++
		remaining--
		if remaining == 0 {
			workDone = true
			return
		}
		w.Sched.After(dataGap, pump)
	}
	establish = func() {
		if budget <= 0 {
			workDone = true
			return
		}
		budget--
		err := w.Source.EstablishRoute(w.Destination.NodeID(), func(res core.EstablishResult) {
			finalStatus = res.Status
			statusKnown = true
			switch res.Status {
			case core.StatusVerified, core.StatusUnverified:
				pump()
			case core.StatusDetected:
				// The attacker is isolated. Its forged high-sequence route
				// entries poisoned relay tables along the reply path; they
				// heal when the AODV route lifetime lapses, and the
				// blacklist stops re-infection. Retry after the lifetime so
				// the delivery measurement sees the healed network.
				heal := aodv.RouteLifetime + time.Second
				w.Sched.After(heal, establish)
			default:
				workDone = true
			}
		})
		if err != nil {
			workDone = true
		}
	}
	w.Sched.After(establishAt, establish)

	// Drive the run: stop once the workload settled (plus a grace period
	// for isolation traffic) or at the hard limit.
	var doneAt time.Duration
	for w.Sched.Now() < w.Cfg.MaxSimTime {
		if err := ctx.Err(); err != nil {
			return metrics.Outcome{}, err
		}
		w.runFor(500 * time.Millisecond)
		if workDone && doneAt == 0 {
			doneAt = w.Sched.Now()
		}
		if doneAt != 0 && w.Sched.Now() >= doneAt+grace {
			break
		}
	}

	return w.extractOutcome(finalStatus, statusKnown, dataSent, dataDelivered), nil
}

func (w *World) extractOutcome(status core.EstablishStatus, statusKnown bool, sent, delivered int) metrics.Outcome {
	o := metrics.Outcome{
		Seed:            w.Cfg.Seed,
		AttackerPresent: w.Cfg.Attack != NoAttack,
		Cooperative:     w.Cfg.Attack == CooperativeBlackHole,
		AttackerCluster: w.Cfg.AttackerCluster,
		DataSent:        sent,
		DataDelivered:   delivered,
		Duration:        w.Sched.Now(),
	}
	if statusKnown {
		o.EstablishStatus = status.String()
	}
	air := w.Env.Medium.Stats()
	o.AirFrames = air.SentFrames.Frames
	o.AirBytes = air.SentFrames.Bytes
	o.AirOffered = air.OfferedFrames.Frames
	o.AirDelivered = air.DeliveredFrames.Frames
	o.AirLost = air.LostFrames.Frames
	o.AirDuplicated = air.DuplicatedFrames.Frames
	o.DReqRetransmits = w.Source.Stats().DReqRetransmits
	o.Failovers = w.Source.Stats().Failovers

	if o.AttackerPresent {
		o.AttackersPresent = 1 + len(w.Extras)
	}
	extraIDs := func(id wire.NodeID) bool {
		for _, h := range w.Extras {
			if h.ids[id] {
				return true
			}
		}
		return false
	}
	var primaryCase *core.CaseTally
	for _, ct := range w.Env.Tally.Cases() {
		isAttacker := w.attackerIDs[ct.Suspect]
		isTeammate := w.teammateIDs[ct.Suspect]
		if ct.Verdict == wire.VerdictMalicious {
			switch {
			case isAttacker:
				o.Detected = true
			case isTeammate:
				o.TeammateDetected = true
			case extraIDs(ct.Suspect):
				// counted below, per hostile
			default:
				o.FalseAccusations++
			}
			if ct.Teammate != 0 && w.teammateIDs[ct.Teammate] {
				o.TeammateDetected = true
			}
		}
		if isAttacker && (primaryCase == nil || ct.DetectionPackets() > primaryCase.DetectionPackets()) {
			primaryCase = ct
		}
	}
	if o.Detected {
		o.AttackersDetected++
	}
	for _, h := range w.Extras {
		if h.detectedIn(w.Env.Tally) {
			o.AttackersDetected++
		}
	}
	if primaryCase != nil {
		o.DetectionPackets = primaryCase.DetectionPackets()
		o.IsolationPackets = primaryCase.IsolationPackets
		if primaryCase.ResolvedAt > primaryCase.ReportedAt {
			o.DetectionLatency = primaryCase.ResolvedAt - primaryCase.ReportedAt
		}
	}
	if o.AttackerPresent && !o.Detected && w.AttackerBH != nil {
		forged := w.AttackerBH.Stats().RepliesForged > 0
		avoided := status == core.StatusPrevented ||
			(status == core.StatusVerified && w.AttackerBH.Stats().DataDropped == 0)
		o.Prevented = forged && statusKnown && avoided
	}
	return o
}

// Run builds and executes one scenario, returning its outcome. The context
// is checked between simulated slices (see World.RunContext).
func Run(ctx context.Context, cfg Config) (metrics.Outcome, error) {
	return runPooled(ctx, cfg, nil, nil, reference{})
}

// runPooled builds and executes one replication against a (possibly shared)
// event pool and crypto memo, releasing the events still pending when it
// ends, cancelled or not. See buildPooled for the sharing and reference
// contracts.
func runPooled(ctx context.Context, cfg Config, pool *sim.EventPool, memo *pki.Memo, ref reference) (metrics.Outcome, error) {
	w, err := buildPooled(cfg, pool, memo, ref)
	if err != nil {
		return metrics.Outcome{}, err
	}
	defer w.Sched.Release()
	return w.RunContext(ctx)
}

// SweepOptions tune a replication sweep.
type SweepOptions struct {
	// Workers is the pool size: 0 means one per CPU, 1 reproduces the
	// serial path exactly. Either way the aggregated results are
	// byte-identical (see the differential tests).
	Workers int
	// OnRep, when non-nil, is called after each replication completes with
	// its replication index and error (nil on success). Calls are
	// serialised but, with more than one worker, not in replication order.
	OnRep func(rep int, err error)

	// ref selects reference paths for every replication; only this
	// package's differential tests set it.
	ref reference
	// pool, when non-nil, is the event pool of a one-worker sweep instead
	// of a fresh one; only this package's pool tests set it.
	pool *sim.EventPool
	// memo, when non-nil, is the sweep's crypto memo instead of a fresh
	// one; only this package's memo tests set it.
	memo *pki.Memo
}

// workerPool returns one sweep worker's event pool, which the worker's
// replications share one after another.
func (o SweepOptions) workerPool(int) *sim.EventPool {
	if o.pool != nil {
		return o.pool
	}
	return sim.NewEventPool()
}

// reconcileWorkers clamps the sweep pool size and the configs' intra-run
// worker counts so the product of the two goroutine budgets stays within
// GOMAXPROCS. A config's execution mode is semantic — RunWorkers >= 2
// selects the sharded result stream — and is never changed here; only
// goroutine counts shrink. Intra-run workers shrink first (parallel
// replications use cores more efficiently than intra-run windows, and
// sharded outcomes are worker-count independent, so the clamp cannot change
// results) but never below 2; the sweep pool shrinks last, never below 1.
// Sweeps whose configs are all serial pass through untouched.
func reconcileWorkers(sweepWorkers int, cfgs []Config) int {
	maxRun := 0
	for _, c := range cfgs {
		if c.RunWorkers > maxRun {
			maxRun = c.RunWorkers
		}
	}
	if maxRun < 2 {
		return sweepWorkers
	}
	procs := exp.DefaultWorkers()
	w := sweepWorkers
	if w <= 0 {
		w = procs
	}
	run := maxRun
	if run > procs && procs >= 2 {
		run = procs
	}
	if run < 2 {
		run = 2
	}
	for w*run > procs && run > 2 {
		run--
	}
	for w*run > procs && w > 1 {
		w--
	}
	for i := range cfgs {
		if cfgs[i].RunWorkers >= 2 && cfgs[i].RunWorkers > run {
			cfgs[i].RunWorkers = run
		}
	}
	return w
}

// ReplicationSeed is the seed of global replication rep of a sweep whose
// config has seed base. It is the one definition of a replication's seed:
// sweeps derive their worlds from it, and the fleet coordinator checks the
// outcomes a worker returns against it.
func ReplicationSeed(base int64, rep int) int64 { return base + int64(rep)*7919 }

// replicate derives the configs of global replications [start, start+count)
// of a sweep over cfg. A replication's seed is ReplicationSeed of cfg.Seed
// and its global index; mutate, when non-nil, then adjusts its config. The
// mutate hooks run serially in replication order on the caller's goroutine,
// before any replication does, so they may touch caller state without
// locking.
func replicate(cfg Config, start, count int, mutate func(rep int, c *Config)) []Config {
	cfgs := make([]Config, count)
	for i := range cfgs {
		rep := start + i
		c := cfg
		c.Seed = ReplicationSeed(cfg.Seed, rep)
		if mutate != nil {
			mutate(rep, &c)
		}
		cfgs[i] = c
	}
	return cfgs
}

// sweep is the one engine behind every config sweep: it runs cfgs across
// the worker pool and returns keep of each outcome in replication order.
// first is the global replication index of cfgs[0], so OnRep reports
// global indexes. Worlds are built privately per replication and share
// only the sweep's crypto memo, which returns what it would compute, so any
// worker count yields identical results; when configs request intra-run
// parallelism the two worker budgets are reconciled first (see
// reconcileWorkers). keep runs on the worker goroutines.
func sweep[T any](ctx context.Context, cfgs []Config, first int, opt SweepOptions, keep func(metrics.Outcome) T) ([]T, error) {
	memo := sweepMemo(opt, cfgs)
	onRep := opt.OnRep
	if onRep != nil && first > 0 {
		onRep = func(rep int, err error) { opt.OnRep(first+rep, err) }
	}
	return exp.MapScratch(ctx, len(cfgs), exp.Options{
		Workers: reconcileWorkers(opt.Workers, cfgs),
		SeedOf:  func(i int) int64 { return cfgs[i].Seed },
		OnRep:   onRep,
	}, opt.workerPool, func(ctx context.Context, i int, pool *sim.EventPool) (T, error) {
		o, err := runPooled(ctx, cfgs[i], pool, memo, opt.ref)
		if err != nil {
			var zero T
			return zero, err
		}
		return keep(o), nil
	})
}

// RunSweep executes global replications [start, start+count) of a sweep
// over cfg and returns their outcomes in replication order. Replication
// seeds (and mutate's rep argument, and OnRep's) are GLOBAL replication
// indexes, so concatenating RunSweep(0, k) and RunSweep(k, n-k) is
// byte-identical to one RunSweep(0, n) — the property the distributed
// sweep fabric (internal/dist) builds on when it shards a sweep across
// worker nodes. See replicate for the mutate contract.
func RunSweep(ctx context.Context, cfg Config, start, count int, opt SweepOptions, mutate func(rep int, c *Config)) ([]metrics.Outcome, error) {
	if start < 0 {
		return nil, fmt.Errorf("scenario: sweep range start %d is negative", start)
	}
	return sweep(ctx, replicate(cfg, start, count, mutate), start, opt, keepOutcome)
}

// keepOutcome is the sweep sink that retains every outcome.
func keepOutcome(o metrics.Outcome) metrics.Outcome { return o }

// RunSweepStream is RunSweep over replications [0, reps), folding every
// outcome into a streaming aggregate instead of retaining one Outcome per
// replication: sweep memory stays constant no matter how many replications
// run, which is what makes metro-scale sweeps fit on one machine. Every
// Stream counter is commutative, so any worker count yields the identical
// report (the streaming equivalence test holds it against the retained
// path). The returned stream is meaningful only when the error is nil.
func RunSweepStream(ctx context.Context, cfg Config, reps int, opt SweepOptions, mutate func(rep int, c *Config)) (*metrics.Stream, error) {
	stream := metrics.NewStream()
	var mu sync.Mutex
	_, err := sweep(ctx, replicate(cfg, 0, reps, mutate), 0, opt, func(o metrics.Outcome) struct{} {
		mu.Lock()
		stream.Add(o)
		mu.Unlock()
		return struct{}{}
	})
	return stream, err
}
