// Package scenario builds and runs complete simulation scenarios: the Table
// I highway world (100 vehicles, 10 RSU cluster heads, trusted authorities,
// wired backbone), attacker placement rules, the source-destination workload,
// and per-run outcome extraction. It is the layer the public API, the
// example programs and the benchmark harness all drive.
package scenario

import (
	"fmt"
	"math"
	"time"

	"blackdp/internal/core"
	"blackdp/internal/fault"
	"blackdp/internal/wire"
)

// AttackKind selects the adversary for a run.
type AttackKind int

// Attack kinds.
const (
	// NoAttack runs an honest network.
	NoAttack AttackKind = iota + 1
	// SingleBlackHole places one black hole vehicle.
	SingleBlackHole
	// CooperativeBlackHole places a black hole and a supporting accomplice
	// within mutual radio range.
	CooperativeBlackHole
)

func (k AttackKind) String() string {
	switch k {
	case NoAttack:
		return "none"
	case SingleBlackHole:
		return "single"
	case CooperativeBlackHole:
		return "cooperative"
	default:
		return fmt.Sprintf("AttackKind(%d)", int(k))
	}
}

// Config describes one simulation run. DefaultConfig returns the paper's
// Table I values; zero fields of a hand-built Config are filled from it.
type Config struct {
	// Seed drives every random decision of the run.
	Seed int64

	// Highway geometry (Table I).
	HighwayLengthM float64 // 10 km
	HighwayWidthM  float64 // 200 m
	ClusterLengthM float64 // 1000 m
	TxRangeM       float64 // 1000 m

	// Topology selects the road layout: "highway" (the paper's Table I
	// world, default), "grid" (Manhattan grid of GridRows×GridCols roads),
	// "multi" (HighwayCount parallel carriageways separated by HighwayGapM)
	// or "interchange" (two highways crossing at their midpoints). The
	// highway fields above parameterise every layout: road length, road
	// width and cluster length.
	Topology     string
	GridRows     int     // horizontal roads in a "grid" world (default 4)
	GridCols     int     // vertical roads in a "grid" world (default 4)
	HighwayCount int     // carriageways in a "multi" world (default 3)
	HighwayGapM  float64 // median width between "multi" carriageways (default 30)

	// Population (Table I).
	Vehicles    int     // 100
	SpeedMinKmh float64 // 50
	SpeedMaxKmh float64 // 90

	// Infrastructure.
	Authorities     int           // TA nodes; clusters are split evenly among them
	CertValidity    time.Duration // vehicle pseudonym lifetime
	BackboneLatency time.Duration // per-hop wired latency

	// Channel.
	LossRate float64 // per-receiver frame loss probability

	// Fault is the injected infrastructure fault schedule: head crashes,
	// backbone link cuts, Gilbert–Elliott burst loss, duplication and
	// reordering. The zero Plan injects nothing and leaves the run
	// byte-identical to a fault-free build (the ablation baseline).
	Fault fault.Plan

	// Protocol.
	Vehicle core.VehicleConfig
	Head    core.HeadConfig

	// CryptoScheme picks the signature scheme by name: "ecdsa" (P-256 per
	// packet, the default), "session" (one ECDSA anchor per pseudonym epoch
	// + HMAC-SHA256 per packet), or "placeholder" (free digests, the
	// ablation). The name is part of the canonical fingerprint: scheme
	// classes never share cache entries.
	CryptoScheme string

	// Attack.
	Attack          AttackKind
	AttackerCluster int // 1-based; 0 picks a random cluster
	// ExtraAttackers adds this many further independent single black holes
	// in random clusters (the paper's attack model allows multiple
	// attackers in the network). Each attracts and drops traffic on its
	// own; detection handles them as separate cases.
	ExtraAttackers  int
	EvasiveClusters []int // clusters where the attacker draws evasive behaviour
	ActLegitProb    float64
	FleeProb        float64 // effective only when the attacker starts in the last cluster
	RenewProb       float64
	FakeHelloProb   float64     // probability of forging probe replies instead of staying silent
	SeqBonus        wire.SeqNum // forged-reply inflation; 0 = attack default

	// Workload.
	DataPackets int           // application packets sent once a route stands
	MaxSimTime  time.Duration // hard stop
	Trace       bool          // record a structured event log

	// RunWorkers selects the intra-run execution mode. <= 1 (the default)
	// runs the whole simulation on the serial scheduler, byte-identical
	// across releases. >= 2 runs it as a cluster-sharded
	// conservative parallel discrete-event simulation: filler vehicles are
	// partitioned into contiguous cluster strips with one event queue each,
	// executed on up to RunWorkers goroutines per conservative time window.
	// Sharded runs are deterministic and *independent of the exact worker
	// count* (2, 4 and 8 workers produce byte-identical outcomes), but they
	// draw radio RNG from per-shard streams (and, under real crypto,
	// per-shard signing streams), so they form their own mode distinct
	// from the serial stream. Sharded mode excludes Trace — Validate
	// enforces it; any crypto scheme is allowed, since the ECDSA memo is
	// mutex-guarded and signing randomness is per-shard.
	RunWorkers int
}

// CryptoScheme names accepted by Config.CryptoScheme.
const (
	SchemeECDSA       = "ecdsa"       // full ECDSA P-256 per packet
	SchemeSession     = "session"     // ECDSA anchor per epoch + HMAC per packet
	SchemePlaceholder = "placeholder" // free digest signatures (ablation)
)

// DefaultConfig returns the paper's Table I parameters with protocol
// defaults: verification on, real ECDSA, two trusted authorities, no channel
// loss, single black hole in a random cluster.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		HighwayLengthM:  10_000,
		HighwayWidthM:   200,
		ClusterLengthM:  1000,
		TxRangeM:        1000,
		Topology:        "highway",
		GridRows:        4,
		GridCols:        4,
		HighwayCount:    3,
		HighwayGapM:     30,
		Vehicles:        100,
		SpeedMinKmh:     50,
		SpeedMaxKmh:     90,
		Authorities:     2,
		CertValidity:    time.Hour,
		BackboneLatency: time.Millisecond,
		Vehicle:         core.VehicleConfig{Verify: true, DReqRetries: 1},
		CryptoScheme:    SchemeECDSA,
		Attack:          SingleBlackHole,
		ActLegitProb:    0.15,
		FleeProb:        0.3,
		RenewProb:       0.15,
		DataPackets:     10,
		MaxSimTime:      90 * time.Second,
	}
}

func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.HighwayLengthM == 0 {
		c.HighwayLengthM = def.HighwayLengthM
	}
	if c.HighwayWidthM == 0 {
		c.HighwayWidthM = def.HighwayWidthM
	}
	if c.ClusterLengthM == 0 {
		c.ClusterLengthM = def.ClusterLengthM
	}
	if c.TxRangeM == 0 {
		c.TxRangeM = def.TxRangeM
	}
	if c.Topology == "" {
		c.Topology = def.Topology
	}
	if c.GridRows == 0 {
		c.GridRows = def.GridRows
	}
	if c.GridCols == 0 {
		c.GridCols = def.GridCols
	}
	if c.HighwayCount == 0 {
		c.HighwayCount = def.HighwayCount
	}
	if c.HighwayGapM == 0 {
		c.HighwayGapM = def.HighwayGapM
	}
	if c.Vehicles == 0 {
		c.Vehicles = def.Vehicles
	}
	if c.SpeedMinKmh == 0 {
		c.SpeedMinKmh = def.SpeedMinKmh
	}
	if c.SpeedMaxKmh == 0 {
		c.SpeedMaxKmh = def.SpeedMaxKmh
	}
	if c.Authorities == 0 {
		c.Authorities = def.Authorities
	}
	if c.CertValidity == 0 {
		c.CertValidity = def.CertValidity
	}
	if c.BackboneLatency == 0 {
		c.BackboneLatency = def.BackboneLatency
	}
	if c.CryptoScheme == "" {
		c.CryptoScheme = def.CryptoScheme
	}
	if c.Attack == 0 {
		c.Attack = def.Attack
	}
	if c.MaxSimTime == 0 {
		c.MaxSimTime = def.MaxSimTime
	}
	if c.Vehicle.DReqRetries == 0 {
		c.Vehicle.DReqRetries = def.Vehicle.DReqRetries
	}
	return c
}

// World-size bounds Validate enforces, so one request cannot ask for a
// world that exhausts memory: the 100k-vehicle metro benchmark is the
// largest world the repo builds, and a 64x64 grid has the most clusters.
const (
	maxVehicles = 100_000
	maxClusters = 2 * 64 * 64
)

// clusterCount returns how many clusters the configured topology has; the
// per-topology constructors in internal/mobility build exactly this many.
func (c Config) clusterCount() int {
	n := int(c.HighwayLengthM / c.ClusterLengthM)
	switch c.Topology {
	case "grid":
		return 2 * c.GridRows * c.GridCols
	case "multi":
		return n * c.HighwayCount
	case "interchange":
		return 2 * n
	default: // "highway"
		return n
	}
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch c.Topology {
	case "highway", "grid", "multi", "interchange":
	default:
		return fmt.Errorf("scenario: unknown topology %q", c.Topology)
	}
	switch {
	case c.GridRows < 1 || c.GridRows > 64 || c.GridCols < 1 || c.GridCols > 64:
		return fmt.Errorf("scenario: grid %dx%d out of range [1, 64]", c.GridRows, c.GridCols)
	case c.HighwayCount < 1 || c.HighwayCount > 64:
		return fmt.Errorf("scenario: %d carriageways out of range [1, 64]", c.HighwayCount)
	case c.HighwayGapM < 0:
		return fmt.Errorf("scenario: carriageway gap %v negative", c.HighwayGapM)
	}
	// The ratio is bounded in float before clusterCount converts it to int.
	if r := c.HighwayLengthM / c.ClusterLengthM; !(math.Abs(r) <= maxClusters) {
		return fmt.Errorf("scenario: HighwayLengthM %v over ClusterLengthM %v makes more than %d clusters",
			c.HighwayLengthM, c.ClusterLengthM, maxClusters)
	}
	clusters := c.clusterCount()
	switch {
	case clusters > maxClusters:
		return fmt.Errorf("scenario: %d clusters above %d (HighwayLengthM / ClusterLengthM x HighwayCount)", clusters, maxClusters)
	case c.Vehicles < 4:
		return fmt.Errorf("scenario: %d vehicles cannot form source, destination and relays", c.Vehicles)
	case c.Vehicles > maxVehicles:
		return fmt.Errorf("scenario: Vehicles %d above %d, the largest world built", c.Vehicles, maxVehicles)
	case c.SpeedMaxKmh < c.SpeedMinKmh:
		return fmt.Errorf("scenario: speed range [%v, %v] inverted", c.SpeedMinKmh, c.SpeedMaxKmh)
	case c.Authorities < 1 || c.Authorities > clusters:
		return fmt.Errorf("scenario: %d authorities for %d clusters", c.Authorities, clusters)
	case c.AttackerCluster < 0 || c.AttackerCluster > clusters:
		return fmt.Errorf("scenario: attacker cluster %d out of range [0, %d]", c.AttackerCluster, clusters)
	case c.BackboneLatency < 0:
		return fmt.Errorf("scenario: backbone latency %v negative", c.BackboneLatency)
	case c.LossRate < 0 || c.LossRate >= 1:
		return fmt.Errorf("scenario: loss rate %v out of [0, 1)", c.LossRate)
	case c.ExtraAttackers < 0 || c.ExtraAttackers > c.Vehicles/4:
		return fmt.Errorf("scenario: %d extra attackers for %d vehicles", c.ExtraAttackers, c.Vehicles)
	case c.Vehicle.DReqRetries < -1:
		return fmt.Errorf("scenario: Vehicle.DReqRetries %d below -1 (no retransmission)", c.Vehicle.DReqRetries)
	case c.Head.StageDelay < 0:
		return fmt.Errorf("scenario: Head.StageDelay %v negative", c.Head.StageDelay)
	case c.Head.AuthProcessing < 0:
		return fmt.Errorf("scenario: Head.AuthProcessing %v negative", c.Head.AuthProcessing)
	case c.Head.FogNodes < 0 || c.Head.FogNodes > 64:
		return fmt.Errorf("scenario: Head.FogNodes %d out of range [0, 64]", c.Head.FogNodes)
	}
	switch c.CryptoScheme {
	case SchemeECDSA, SchemeSession, SchemePlaceholder:
	default:
		return fmt.Errorf("scenario: unknown crypto scheme %q (want %q, %q or %q)",
			c.CryptoScheme, SchemeECDSA, SchemeSession, SchemePlaceholder)
	}
	if c.RunWorkers >= 2 && c.Trace {
		return fmt.Errorf("scenario: RunWorkers=%d excludes Trace (the recorder is not shard-safe)", c.RunWorkers)
	}
	return c.Fault.Validate(clusters)
}

// CrashPlan is a convenience constructor for the most common fault schedule:
// the head of one cluster crashes at `at` and recovers at `recoverAt`
// (0 = stays down for the rest of the run).
func CrashPlan(cluster int, at, recoverAt time.Duration) fault.Plan {
	return fault.Plan{HeadCrashes: []fault.HeadCrash{
		{Cluster: cluster, At: at, RecoverAt: recoverAt},
	}}
}

// BurstPlan is a convenience constructor for a Gilbert–Elliott burst-loss
// channel: lossless good state, lossBad in the fading state, with the given
// state-transition probabilities per loss decision.
func BurstPlan(lossBad, goodToBad, badToGood float64) fault.Plan {
	return fault.Plan{Burst: fault.BurstLoss{
		LossBad: lossBad, GoodToBad: goodToBad, BadToGood: badToGood,
	}}
}
