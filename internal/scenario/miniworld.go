package scenario

import (
	"time"

	"blackdp/internal/attack"
	"blackdp/internal/cluster"
	"blackdp/internal/core"
	"blackdp/internal/mobility"
	"blackdp/internal/pki"
	"blackdp/internal/radio"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// miniWorld is the frame the engineered highway worlds share (Figure 5, the
// connector, the fog ablation): the paper's 10 km highway under ECDSA, one
// scheduler and one TA serving every cluster, with no heads and no traffic
// until the caller adds them.
type miniWorld struct {
	env   core.Env
	sched *sim.Scheduler
	rng   *sim.RNG // the root stream, past its core, crypto and radio splits
	ta    *core.AuthorityAgent
	heads []*core.HeadAgent // in start order
}

func newMiniWorld(seed int64) (*miniWorld, error) {
	highway, err := mobility.NewHighway(10_000, 200, 1000)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	sched := sim.NewScheduler()
	// The splits run in field order, core, crypto, radio, and every later
	// draw depends on that order.
	env := core.Env{
		Sched:    sched,
		RNG:      rng.Split("core"),
		Trust:    pki.NewTrustStore(),
		Scheme:   ecdsaScheme(rng, nil, reference{}),
		Dir:      cluster.NewDirectory(),
		Highway:  highway,
		Medium:   radio.NewMedium(sched, rng.Split("radio")),
		Backbone: radio.NewBackbone(sched, time.Millisecond),
		Tally:    core.NewTally(),
	}
	served := make([]wire.ClusterID, highway.Clusters())
	for i := range served {
		served[i] = wire.ClusterID(i + 1)
	}
	ta, err := core.NewAuthorityAgent(env, 1, 1, served, time.Hour)
	if err != nil {
		return nil, err
	}
	return &miniWorld{env: env, sched: sched, rng: rng, ta: ta}, nil
}

// head starts the RSU of cluster c.
func (m *miniWorld) head(c wire.ClusterID, cfg core.HeadConfig) (*core.HeadAgent, error) {
	cred, err := m.ta.IssueHeadCredential(c)
	if err != nil {
		return nil, err
	}
	h, err := core.NewHeadAgent(m.env, cfg, cred, c)
	if err != nil {
		return nil, err
	}
	h.Start()
	m.heads = append(m.heads, h)
	return h, nil
}

// vehicle starts a route-verifying vehicle driving east from x along the
// highway's centre line at speed m/s.
func (m *miniWorld) vehicle(lineage string, x, speed float64) (*core.VehicleAgent, error) {
	cred, err := m.ta.IssueVehicleCredential(lineage)
	if err != nil {
		return nil, err
	}
	hw := m.env.Highway
	mob, err := mobility.NewMobileOnRoad(hw, hw.Roads()[0], mobility.Position{X: x, Y: 100}, mobility.Eastbound, speed, 0)
	if err != nil {
		return nil, err
	}
	v, err := core.NewVehicleAgent(m.env, core.VehicleConfig{Verify: true}, cred, mob)
	if err != nil {
		return nil, err
	}
	v.Start()
	return v, nil
}

// attackEnv returns the attack.Env fields every black hole shares: v's
// radio, pseudonym, cluster, sealing credential and legitimate frame
// handler, on env's clock and signature scheme. rng is the attacker's own
// stream, which each world splits under its own name.
func attackEnv(env core.Env, v *core.VehicleAgent, rng *sim.RNG) attack.Env {
	return attack.Env{
		Sched:   env.Sched,
		RNG:     rng,
		Send:    v.Interface().Send,
		Self:    v.Interface().NodeID,
		Cluster: v.Client().Cluster,
		Seal: func(p wire.Packet) ([]byte, error) {
			sec, err := pki.Seal(p, v.Credential(), env.Scheme)
			if err != nil {
				return nil, err
			}
			return sec.MarshalBinary()
		},
		Inner: v.HandleFrame,
	}
}

// armBlackhole puts a black hole running profile in front of v's radio.
func armBlackhole(v *core.VehicleAgent, profile attack.Profile, env attack.Env) *attack.Blackhole {
	bh := attack.NewBlackhole(profile, env)
	v.Interface().SetReceiver(bh.HandleFrame)
	return bh
}
