// Package blackdp is a discrete-event simulation study of BlackDP, the
// Black Hole Detection Protocol for connected vehicles (Albouq and
// Fredericks, ICDCS 2017).
//
// The package reproduces the paper's complete system from scratch: a
// deterministic discrete-event engine, a clustered highway with Road Side
// Units as cluster heads, an AODV routing stack, an IEEE 1609.2-style PKI
// with pseudonymous certificates, single and cooperative black hole
// attackers with the paper's evasive behaviours, and the BlackDP protocol
// itself — source/destination verification, detection requests to trusted
// RSUs, bait probing under disposable identities, and isolation through
// certificate revocation and blacklists.
//
// The public API is scenario-oriented and context-first:
//
//	cfg := blackdp.DefaultConfig()       // the paper's Table I
//	cfg.AttackerCluster = 4
//	outcome, err := blackdp.Run(ctx, cfg)
//
// Replication sweeps take functional options:
//
//	outcomes, err := blackdp.Sweep(ctx, cfg, 100,
//	    blackdp.WithWorkers(8),
//	    blackdp.WithProgress(func(done, total int) { ... }))
//
// Experiment entry points regenerate the paper's evaluation: Fig4 sweeps
// the attacker across clusters and reports detection accuracy and error
// rates; Fig5 reproduces the per-scenario detection packet counts; TableI
// returns the simulation parameters; CompareDetectors and RunConnector
// reproduce the related-work comparison, including the connector topology
// where sequence-number heuristics fail.
//
// Worlds default to the paper's single clustered highway. Config.Topology
// composes metro-scale alternatives over the same protocol stack — "grid"
// (a Manhattan grid city), "multi" (parallel carriageways) and
// "interchange" (two crossing highways) — and SweepStream aggregates
// arbitrarily large replication sweeps in bounded memory. Neighbor
// resolution uses a grid-hash spatial index that is bit-for-bit equivalent
// to the O(N) scan (Config.LinearScan retains the reference path).
package blackdp

import (
	"context"
	"time"

	"blackdp/internal/fault"
	"blackdp/internal/metrics"
	"blackdp/internal/scenario"
	"blackdp/internal/wire"
)

// Re-exported scenario types. See the scenario documentation on each.
type (
	// Config describes one simulation run (Table I defaults via
	// DefaultConfig).
	Config = scenario.Config
	// AttackKind selects the adversary.
	AttackKind = scenario.AttackKind
	// World is a fully built simulation, for callers that need agent-level
	// access before running.
	World = scenario.World
	// Outcome is the per-run result record.
	Outcome = metrics.Outcome
	// Summary aggregates outcomes into the paper's rates.
	Summary = metrics.Summary
	// Report is the flat JSON projection of a Summary, as emitted by the
	// blackdp-serve result stream.
	Report = metrics.Report
	// Stream folds outcomes into the paper's rates in bounded memory: exact
	// counters plus a capped-error latency sketch, for sweeps too large to
	// retain per-replication records.
	Stream = metrics.Stream
	// Fig4Point is one attacker-cluster bar of Figure 4.
	Fig4Point = scenario.Fig4Point
	// Fig5Category enumerates Figure 5's scenario classes.
	Fig5Category = scenario.Fig5Category
	// Fig5Result is a measured Figure 5 data point.
	Fig5Result = scenario.Fig5Result
	// DetectorScore is one row of the detector comparison.
	DetectorScore = scenario.DetectorScore
	// ConnectorResult reports the connector-topology comparison.
	ConnectorResult = scenario.ConnectorResult
	// FogResult reports the RSU verification-bottleneck ablation.
	FogResult = scenario.FogResult
	// SeqNum is an AODV destination sequence number.
	SeqNum = wire.SeqNum
	// FaultPlan is a declarative infrastructure fault schedule for one run
	// (Config.Fault). The zero value injects nothing.
	FaultPlan = fault.Plan
	// HeadCrash takes one cluster head offline at a simulated instant.
	HeadCrash = fault.HeadCrash
	// LinkCut severs one backbone chain link.
	LinkCut = fault.LinkCut
	// BurstLoss configures a Gilbert–Elliott two-state loss channel.
	BurstLoss = fault.BurstLoss
)

// Attack kinds.
const (
	NoAttack             = scenario.NoAttack
	SingleBlackHole      = scenario.SingleBlackHole
	CooperativeBlackHole = scenario.CooperativeBlackHole
)

// Crypto scheme names for Config.CryptoScheme and [WithCryptoScheme]. The
// empty string derives the scheme from the legacy Config.RealCrypto boolean.
const (
	SchemeECDSA       = scenario.SchemeECDSA
	SchemeSession     = scenario.SchemeSession
	SchemePlaceholder = scenario.SchemePlaceholder
)

// Figure 5 categories.
const (
	Fig5NoAttackerLocal        = scenario.Fig5NoAttackerLocal
	Fig5NoAttackerRemote       = scenario.Fig5NoAttackerRemote
	Fig5SingleLocal            = scenario.Fig5SingleLocal
	Fig5SingleMoved            = scenario.Fig5SingleMoved
	Fig5SingleMovedRemote      = scenario.Fig5SingleMovedRemote
	Fig5CooperativeLocal       = scenario.Fig5CooperativeLocal
	Fig5CooperativeMoved       = scenario.Fig5CooperativeMoved
	Fig5CooperativeMovedRemote = scenario.Fig5CooperativeMovedRemote
)

// DefaultConfig returns the paper's Table I simulation parameters with the
// protocol defaults (verification on, ECDSA P-256 signatures, two trusted
// authorities).
func DefaultConfig() Config { return scenario.DefaultConfig() }

// Option tunes a run or sweep. Options compose left to right; the zero set
// means "one worker per CPU, no callbacks, no per-replication mutation".
type Option func(*options)

type options struct {
	workers          int
	runWorkers       int
	runWorkersSet    bool
	cryptoScheme     string
	cryptoSchemeSet  bool
	noVerifyCache    bool
	noVerifyCacheSet bool
	progress         func(done, total int)
	onRep            func(rep int, err error)
	mutate           func(rep int, c *Config)
}

func (o options) applyRunWorkers(cfg Config) Config {
	if o.runWorkersSet {
		cfg.RunWorkers = o.runWorkers
	}
	if o.cryptoSchemeSet {
		cfg.CryptoScheme = o.cryptoScheme
	}
	if o.noVerifyCacheSet {
		cfg.NoVerifyCache = o.noVerifyCache
	}
	return cfg
}

func (o options) sweepOptions() scenario.SweepOptions {
	return scenario.SweepOptions{Workers: o.workers, Progress: o.progress, OnRep: o.onRep}
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithWorkers sets the sweep's worker-pool size: 0 means one per CPU, 1
// reproduces the serial path exactly. Results are byte-identical for any
// worker count.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithRunWorkers sets Config.RunWorkers on every run the call dispatches:
// <= 1 executes each simulation on the serial scheduler (the legacy path,
// byte-identical across releases); >= 2 executes it as a cluster-sharded
// conservative parallel simulation on up to n goroutines. Sharded results
// are deterministic and independent of the exact worker count, but form
// their own mode, distinct from the serial stream; sharded configs must use
// the spatial index (Config.Validate enforces it). Any crypto scheme shards
// cleanly: verification caches are per-agent and signing randomness is
// drawn from per-shard streams.
// In sweeps the two worker budgets are reconciled so sweep workers times
// intra-run workers stays within GOMAXPROCS — intra-run shrinks first,
// never below 2, and the mode is never silently changed.
func WithRunWorkers(n int) Option {
	return func(o *options) { o.runWorkers, o.runWorkersSet = n, true }
}

// WithCryptoScheme sets Config.CryptoScheme on every run the call
// dispatches: [SchemeECDSA] signs and verifies every packet with ECDSA
// P-256 (the paper's model), [SchemeSession] amortises one ECDSA signature
// per pseudonym epoch into per-packet HMAC-SHA256 session tokens, and
// [SchemePlaceholder] is the free no-op scheme. The scheme is part of the
// run's fingerprint; ECDSA and session-token runs of one seed are
// byte-identical because every scheme occupies the same fixed-width
// signature frame.
func WithCryptoScheme(name string) Option {
	return func(o *options) { o.cryptoScheme, o.cryptoSchemeSet = name, true }
}

// WithVerifyCache toggles the per-agent signature verification cache
// (Config.NoVerifyCache inverted). The cache is byte-for-bit invisible —
// the crypto differential suite holds cached and uncached runs identical —
// so disabling it only slows the run; the reference path exists for
// differential testing.
func WithVerifyCache(enabled bool) Option {
	return func(o *options) { o.noVerifyCache, o.noVerifyCacheSet = !enabled, true }
}

// WithProgress installs a callback invoked after each replication completes
// with the number done so far and the total. Calls are serialised but, with
// more than one worker, not in replication order.
func WithProgress(fn func(done, total int)) Option {
	return func(o *options) { o.progress = fn }
}

// WithOnRep installs a callback invoked after each replication completes
// with its replication index and error (nil on success), immediately before
// the progress callback and under the same lock.
func WithOnRep(fn func(rep int, err error)) Option {
	return func(o *options) { o.onRep = fn }
}

// WithMutate installs a per-replication config hook for Sweep: it runs
// serially in replication order before the sweep fans out (after the rep's
// seed is assigned), so it may touch caller state without locking.
func WithMutate(fn func(rep int, c *Config)) Option {
	return func(o *options) { o.mutate = fn }
}

// Run executes one simulation and returns its outcome. The context is
// checked between scheduler slices, so a canceled run stops within one
// simulated slice. Sweep-scoped options (workers, callbacks, mutation) do
// not apply to a single run and are ignored.
func Run(ctx context.Context, cfg Config, opts ...Option) (Outcome, error) {
	o := buildOptions(opts)
	return scenario.RunContext(ctx, o.applyRunWorkers(cfg))
}

// Canonical returns the deterministic serialized form of a config:
// defaults applied, evasive clusters normalized to a sorted set, trace
// retention (which cannot affect outcomes) excluded. Two configs with the
// same canonical bytes produce byte-identical outcomes.
func Canonical(cfg Config) ([]byte, error) { return scenario.Canonical(cfg) }

// Fingerprint is the hex SHA-256 of Canonical(cfg) — the key under which
// blackdp-serve caches results.
func Fingerprint(cfg Config) (string, error) { return scenario.Fingerprint(cfg) }

// CrashPlan builds the most common fault schedule: one head crash with an
// optional recovery (recoverAt = 0 keeps it down for the rest of the run).
func CrashPlan(cluster int, at, recoverAt time.Duration) FaultPlan {
	return scenario.CrashPlan(cluster, at, recoverAt)
}

// BurstPlan builds a Gilbert–Elliott burst-loss fault schedule with a
// lossless good state.
func BurstPlan(lossBad, goodToBad, badToGood float64) FaultPlan {
	return scenario.BurstPlan(lossBad, goodToBad, badToGood)
}

// Sweep executes reps independent runs of cfg with derived seeds and
// returns every outcome in replication order. Replication seeds are a pure
// function of cfg.Seed and the replication index, worlds are built privately
// per replication, and outcomes are collected in replication order — so any
// worker count yields identical results.
func Sweep(ctx context.Context, cfg Config, reps int, opts ...Option) ([]Outcome, error) {
	o := buildOptions(opts)
	return scenario.RunSweep(ctx, o.applyRunWorkers(cfg), reps, o.sweepOptions(), o.mutate)
}

// SweepStream executes reps runs like [Sweep] but folds every outcome into a
// bounded-memory [Stream] as it completes instead of retaining the whole
// outcome slice — memory stays flat no matter how many replications run.
// While the stream's exact-latency reservoir has not spilled, its Report is
// bit-identical to aggregating the retained outcomes; past the spill point
// only the latency percentiles degrade, to a capped 1/64 relative error.
func SweepStream(ctx context.Context, cfg Config, reps int, opts ...Option) (*Stream, error) {
	o := buildOptions(opts)
	return scenario.RunSweepStream(ctx, o.applyRunWorkers(cfg), reps, o.sweepOptions(), o.mutate)
}

// NewStream returns an empty streaming aggregate, for callers folding
// outcomes from their own sources.
func NewStream() *Stream { return metrics.NewStream() }

// Build constructs a world without running it, for agent-level inspection.
func Build(cfg Config) (*World, error) { return scenario.Build(cfg) }

// LoadConfig reads a JSON config file, layering it over DefaultConfig so
// files only need the fields they change.
func LoadConfig(path string) (Config, error) { return scenario.LoadConfig(path) }

// SaveConfig writes a config as indented JSON.
func SaveConfig(cfg Config, path string) error { return scenario.SaveConfig(cfg, path) }

// Aggregate folds outcomes into accuracy/TP/FN/FP rates.
func Aggregate(outcomes []Outcome) Summary { return metrics.Aggregate(outcomes) }

// ByCluster groups outcomes per attacker cluster (Figure 4's x-axis).
func ByCluster(outcomes []Outcome) map[int]Summary { return metrics.ByCluster(outcomes) }

// Fig4 sweeps the attacker over every cluster for the given attack kind
// with reps repetitions per cluster, enabling the paper's evasive
// behaviours in the last three clusters. The full clusters x reps grid runs
// as one flat parallel sweep.
func Fig4(ctx context.Context, base Config, kind AttackKind, reps int, opts ...Option) ([]Fig4Point, error) {
	o := buildOptions(opts)
	return scenario.RunFig4Sweep(ctx, o.applyRunWorkers(base), kind, reps, o.sweepOptions())
}

// Fig5 measures the detection-packet count of every Figure 5 scenario
// class (one category per worker).
func Fig5(ctx context.Context, seed int64, opts ...Option) ([]Fig5Result, error) {
	return scenario.Fig5SeriesSweep(ctx, seed, buildOptions(opts).sweepOptions())
}

// Fig5Categories lists the Figure 5 classes in presentation order.
func Fig5Categories() []Fig5Category { return scenario.Fig5Categories() }

// RunFig5 measures one Figure 5 scenario class.
func RunFig5(cat Fig5Category, seed int64) (Fig5Result, error) {
	return scenario.RunFig5(cat, seed)
}

// CompareDetectors scores the related-work sequence-number detectors and
// BlackDP over reps identical scenarios: worlds fan out across the pool,
// detector scoring folds in replication order.
func CompareDetectors(ctx context.Context, cfg Config, reps int, opts ...Option) ([]DetectorScore, error) {
	o := buildOptions(opts)
	return scenario.CompareDetectorsSweep(ctx, o.applyRunWorkers(cfg), reps, o.sweepOptions())
}

// RunConnector reproduces the paper's connector argument: the attacker
// bridges two disconnected highway segments, so sequence-number heuristics
// see a single uncomparable reply while BlackDP probes behaviour.
func RunConnector(seed int64, seqBonus SeqNum) (ConnectorResult, error) {
	return scenario.RunConnector(seed, seqBonus)
}

// RunFogAblation reproduces the paper's SIII-C limitation discussion: a
// burst of simultaneous reports at one cluster head whose per-packet
// authentication costs authCost, with fogNodes fog verifiers offloading
// (the paper's proposed mitigation).
func RunFogAblation(seed int64, reporters int, authCost time.Duration, fogNodes int) (FogResult, error) {
	return scenario.RunFogAblation(seed, reporters, authCost, fogNodes)
}

// Parameter is one row of the paper's Table I.
type Parameter struct {
	Name  string
	Value string
}

// TableI returns the simulation parameters exactly as the paper tabulates
// them, alongside the corresponding DefaultConfig fields.
func TableI() []Parameter {
	return []Parameter{
		{Name: "Vehicle speed", Value: "50-90km"},
		{Name: "#Vehicles", Value: "100"},
		{Name: "#RSUs (CHs)", Value: "10"},
		{Name: "Transmission range", Value: "1000m"},
		{Name: "Highway length", Value: "10km"},
		{Name: "Highway width", Value: "200m"},
		{Name: "Cluster length", Value: "1000m"},
	}
}
