package workload

import (
	"encoding/json"
	"math/rand"
)

// OpKind is one kind of serve-mixed operation.
type OpKind int

// Operation kinds and their share of the mix.
const (
	// OpFresh submits a run job with a config never seen before: a cache
	// miss on the serial scheduler.
	OpFresh OpKind = iota + 1
	// OpFreshSharded is OpFresh on the cluster-sharded executor.
	OpFreshSharded
	// OpRepeat resubmits an earlier fresh request of the same client: a
	// cache hit whose payload must equal the original's.
	OpRepeat
	// OpSweep submits a durable sweep of SweepReps replications: journal
	// writes and a progress stream.
	OpSweep
	// OpRetail re-reads a finished sweep's stream from a line offset: a
	// journal read that must equal the original stream's tail.
	OpRetail
	// OpTrace submits a trace-retaining run, then fetches its event log.
	OpTrace
)

func (k OpKind) String() string {
	switch k {
	case OpFresh:
		return "fresh"
	case OpFreshSharded:
		return "fresh-sharded"
	case OpRepeat:
		return "repeat"
	case OpSweep:
		return "sweep"
	case OpRetail:
		return "retail"
	case OpTrace:
		return "trace"
	}
	return "unknown"
}

// mixWeights is the request mix in percent: 40% fresh runs (a quarter of
// them sharded), 25% repeats, 20% durable sweeps, 10% re-tails, 5% traces.
var mixWeights = []struct {
	kind   OpKind
	weight int
}{
	{OpFresh, 30}, {OpFreshSharded, 10}, {OpRepeat, 25}, {OpSweep, 20}, {OpRetail, 10}, {OpTrace, 5},
}

const (
	// SweepReps is the replication count of every sweep in the mix.
	SweepReps = 8
	// repeatWindow bounds how far back a repeat reaches, counted in the
	// client's fresh runs, so its target is still in the server's result
	// cache (128 entries, shared by both clients).
	repeatWindow = 8
	// retailWindow bounds how far back a re-tail reaches, counted in the
	// client's sweeps, so its job is still in the server's retained-job
	// registry (256 jobs, shared by both clients).
	retailWindow = 4
)

// Op is one planned serve-mixed operation.
type Op struct {
	Kind OpKind
	// Seed is the simulation seed of the job's config (fresh, sweep and
	// trace operations).
	Seed int64
	// Target indexes the earlier operation of the same client that a
	// repeat resubmits or a re-tail reads.
	Target int
	// Offset is a re-tail's starting line.
	Offset int
}

// Plan returns client's first n operations for the workload seed. It is a
// pure function of its arguments; a repeat or re-tail with no eligible
// earlier operation becomes a fresh run.
func Plan(seed int64, client, n int) []Op {
	rng := rand.New(rand.NewSource(Derive(seed, "mix", client)))
	total := 0
	for _, w := range mixWeights {
		total += w.weight
	}
	var fresh, sweeps []int
	ops := make([]Op, n)
	for i := range ops {
		pick := rng.Intn(total)
		kind := mixWeights[len(mixWeights)-1].kind
		for _, w := range mixWeights {
			if pick < w.weight {
				kind = w.kind
				break
			}
			pick -= w.weight
		}
		op := Op{Kind: kind}
		switch {
		case kind == OpRepeat && len(fresh) > 0:
			op.Target = fresh[len(fresh)-1-rng.Intn(min(len(fresh), repeatWindow))]
		case kind == OpRetail && len(sweeps) > 0:
			op.Target = sweeps[len(sweeps)-1-rng.Intn(min(len(sweeps), retailWindow))]
			// Up to the result line: accepted, SweepReps progress lines.
			op.Offset = rng.Intn(SweepReps + 2)
		case kind == OpRepeat || kind == OpRetail:
			op.Kind = OpFresh
		}
		switch op.Kind {
		case OpFresh, OpFreshSharded, OpSweep, OpTrace:
			op.Seed = Derive(seed, "serve-job", client*1_000_000+i)
		}
		switch op.Kind {
		case OpFresh, OpFreshSharded:
			fresh = append(fresh, i)
		case OpSweep:
			sweeps = append(sweeps, i)
		}
		ops[i] = op
	}
	return ops
}

// ServeConfig is the config JSON of a serve-mixed job: a small highway
// world (30 vehicles, four clusters, attacker in cluster 2) under the free
// placeholder scheme, on the sharded executor when runWorkers >= 2.
func ServeConfig(seed int64, runWorkers int) json.RawMessage {
	cfg := map[string]any{
		"Seed":            seed,
		"Vehicles":        30,
		"HighwayLengthM":  4000,
		"AttackerCluster": 2,
		"DataPackets":     5,
		"CryptoScheme":    "placeholder",
	}
	if runWorkers >= 2 {
		cfg["RunWorkers"] = runWorkers
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(err) // a map of numbers and strings always encodes
	}
	return b
}
