package dist

import (
	"encoding/json"
	"testing"

	"blackdp/internal/metrics"
	"blackdp/internal/scenario"
)

// FuzzDecodeChunk feeds arbitrary payloads and chunk coordinates to
// decodeChunk. No input may panic, and every payload it accepts must hold
// exactly the chunk's replications: count outcomes, each with the seed of
// its global replication index.
func FuzzDecodeChunk(f *testing.F) {
	chunk := func(seed int64, first, count int) []byte {
		var cp struct {
			Outcomes []metrics.Outcome `json:"outcomes"`
		}
		for i := range count {
			cp.Outcomes = append(cp.Outcomes, metrics.Outcome{Seed: scenario.ReplicationSeed(seed, first+i), Detected: true})
		}
		b, err := json.Marshal(cp)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(chunk(3, 8, 4), int64(3), 8, 4)   // the chunk asked for
	f.Add(chunk(3, 9, 4), int64(3), 8, 4)   // shifted by one replication
	f.Add(chunk(3, 8, 3), int64(3), 8, 4)   // one outcome short
	f.Add(chunk(4, 8, 4), int64(3), 8, 4)   // another config's seed
	f.Add(chunk(-1, 0, 2), int64(-1), 0, 2) // a negative seed
	f.Add([]byte(`{"outcomes":null}`), int64(1), 0, 0)
	f.Add([]byte(`{"outcomes":[{"Seed":"x"}]}`), int64(1), 0, 1)
	f.Add([]byte(`not json`), int64(1), 0, 1)

	f.Fuzz(func(t *testing.T, payload []byte, seed int64, start, count int) {
		outs, err := decodeChunk(payload, seed, start, count)
		if err != nil {
			return
		}
		if len(outs) != count {
			t.Fatalf("accepted %d outcomes for a %d-replication chunk", len(outs), count)
		}
		for i, o := range outs {
			if want := scenario.ReplicationSeed(seed, start+i); o.Seed != want {
				t.Fatalf("accepted outcome %d with seed %d, want %d", i, o.Seed, want)
			}
		}
	})
}
