package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"blackdp/internal/metrics"
	"blackdp/internal/scenario"
)

// BenchmarkDistDispatch prices one full sub-job round trip — coordinator
// chunking, HTTP dispatch, worker admission, a single replication, NDJSON
// stream-back, decode and merge. The seed changes every iteration so no
// chunk cache (coordinator or worker side) short-circuits the path; the
// number is dispatch overhead plus one fastCfg replication, which costs
// about two milliseconds run locally.
func BenchmarkDistDispatch(b *testing.B) {
	f := newFleet(b, 1, Config{ChunkReps: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.coord.SweepRange(ctx, fastCfg(int64(i)), 0, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistDispatchCached prices the fully warm path: the same sweep
// over and over, answered from the coordinator's chunk cache without
// touching the worker. The gap to BenchmarkDistDispatch is the fabric's
// cache win per chunk.
func BenchmarkDistDispatchCached(b *testing.B) {
	f := newFleet(b, 1, Config{ChunkReps: 1})
	ctx := context.Background()
	cfg := fastCfg(1)
	if _, err := f.coord.SweepRange(ctx, cfg, 0, 1, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.coord.SweepRange(ctx, cfg, 0, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistMerge prices the coordinator's merge loop alone: decoding a
// returned chunk payload and placing its outcomes at the replication
// offset, for a representative 8-replication chunk. This is the per-chunk
// coordinator cost that bounds merge throughput on wide fleets.
func BenchmarkDistMerge(b *testing.B) {
	const count = 8
	outs := make([]metrics.Outcome, count)
	for i := range outs {
		outs[i] = metrics.Outcome{Seed: scenario.ReplicationSeed(1, i), AttackerPresent: true, Detected: true, DetectionPackets: 12, IsolationPackets: 4}
	}
	payload, err := json.Marshal(struct {
		Outcomes []metrics.Outcome `json:"outcomes"`
	}{outs})
	if err != nil {
		b.Fatal(err)
	}
	results := make([]metrics.Outcome, 64)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded, err := decodeChunk(payload, 1, 0, count)
		if err != nil {
			b.Fatal(err)
		}
		copy(results[(i%8)*count:], decoded)
	}
}

// BenchmarkDistSweepWorkers prices a whole 16-replication sweep through
// fleets of 1, 2 and 4 workers, against the same sweep run locally — the
// scaling curve quoted in EXPERIMENTS.md. On a laptop all workers share
// the host's cores, so this prices fabric overhead, not speedup.
func BenchmarkDistSweepWorkers(b *testing.B) {
	const reps = 16
	cfg := fastCfg(3)
	b.Run("local", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Seed = int64(1000 + i) // new world each iteration: no cache anywhere
			if _, err := scenario.RunSweep(ctx, c, 0, reps, scenario.SweepOptions{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, nw := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", nw), func(b *testing.B) {
			f := newFleet(b, nw, Config{ChunkReps: 4})
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Seed = int64(1000 + i)
				if _, err := f.coord.SweepRange(ctx, c, 0, reps, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
