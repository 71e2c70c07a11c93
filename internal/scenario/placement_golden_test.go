package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"testing"
	"time"

	"blackdp/internal/attack"
	"blackdp/internal/wire"
)

// The digests below pin world building where the paper-scale golden hashes
// do not reach: every topology's placement (start positions and outcomes
// with extra attackers), the engineered Figure 5 worlds, the connector world
// and the fog ablation. They were recorded before these worlds shared one
// placement routine and one builder, and any drift means a build step moved
// an RNG draw or a vehicle — a behaviour change, never a baseline to
// re-record. The one deliberate re-record since is a counting fix to the
// isolation packets of a case, which the placement and Figure 5 digests
// hash: each backbone revocation notice had counted twice, and the TA's
// notices about an exposed teammate not at all.
var placementGolden = map[string]string{
	"highway":     "26e9a76c68868e1332cb60d53c712227061e39d466d7d613cb141b428bc2f4c0",
	"grid":        "7aac4a7a128f9a4972be5efb7e0159add268f717cd8755c3e10546d3c1f04f52",
	"multi":       "b47c56c70cd8039581bb297a1e99f781b81e88ee176a3bef1937e391ad2832cf",
	"interchange": "e32c091b7a509bb5b8923dcb11402d0d2f43ffc0b0dd0ea80104e4e36f6f0943",
}

const (
	fig5GoldenDigest      = "f5f73a581d82fc5d4d92072f9e73c0d8013b7c64c91498dd049865dece298c66"
	connectorGoldenDigest = "e535ea138c4b71acc755d3b0c3630a3cee057929ba9dd452062db7fa2ba9776e"
	fogGoldenDigest       = "f314dec507c68a2e4bbe866adce199dbaff39f281038efccc6e6ccc2c7195430"
)

// placementConfig is a small world of the given topology with a primary
// attacker of kind and one extra black hole.
func placementConfig(topology string, kind AttackKind, seed int64) Config {
	cfg := DefaultConfig()
	cfg.Topology = topology
	cfg.HighwayLengthM = 4000
	cfg.GridRows, cfg.GridCols = 2, 3
	cfg.HighwayCount = 2
	cfg.Vehicles = 30
	cfg.DataPackets = 5
	cfg.MaxSimTime = 45 * time.Second
	cfg.CryptoScheme = SchemePlaceholder
	cfg.Attack = kind
	cfg.AttackerCluster = 0
	cfg.ExtraAttackers = 1
	cfg.Seed = seed
	return cfg
}

// writeMicrometres writes v rounded to 1 µm, so a last-ulp difference in a
// lane coordinate does not count as a move.
func writeMicrometres(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(math.Round(v*1e6))))
	h.Write(b[:])
}

func writeJSON(t *testing.T, h hash.Hash, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
}

func digest(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)) }

// TestPlacementGoldenDigest pins, per topology, every vehicle's start
// position and the run's outcome over six seeds of single and cooperative
// attacks with one extra attacker each.
func TestPlacementGoldenDigest(t *testing.T) {
	for _, topology := range []string{"highway", "grid", "multi", "interchange"} {
		topology := topology
		t.Run(topology, func(t *testing.T) {
			h := sha256.New()
			for seed := int64(1); seed <= 6; seed++ {
				for _, kind := range []AttackKind{SingleBlackHole, CooperativeBlackHole} {
					w, err := Build(placementConfig(topology, kind, seed))
					if err != nil {
						t.Fatalf("seed %d %v: %v", seed, kind, err)
					}
					for _, v := range w.Vehicles {
						p := v.Mobile().PositionAt(0)
						writeMicrometres(h, p.X)
						writeMicrometres(h, p.Y)
					}
					writeJSON(t, h, w.Run())
					w.Sched.Release()
				}
			}
			if got := digest(h); got != placementGolden[topology] {
				t.Errorf("%s placement digest = %s, want %s", topology, got, placementGolden[topology])
			}
		})
	}
}

// TestFig5GoldenDigest pins the full Figure 5 series, packet counts and
// per-case tallies, for two seeds.
func TestFig5GoldenDigest(t *testing.T) {
	h := sha256.New()
	for _, seed := range []int64{1, 7} {
		series, err := Fig5Series(context.Background(), seed, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		writeJSON(t, h, series)
	}
	if got := digest(h); got != fig5GoldenDigest {
		t.Errorf("Fig 5 digest = %s, want %s", got, fig5GoldenDigest)
	}
}

// TestConnectorGoldenDigest pins the connector world at the inflation that
// defeats the magnitude baselines and at the attacker's default.
func TestConnectorGoldenDigest(t *testing.T) {
	h := sha256.New()
	for _, seed := range []int64{1, 2, 3} {
		for _, bonus := range []wire.SeqNum{30, attack.DefaultProfile().SeqBonus} {
			res, err := RunConnector(seed, bonus)
			if err != nil {
				t.Fatal(err)
			}
			writeJSON(t, h, res)
		}
	}
	if got := digest(h); got != connectorGoldenDigest {
		t.Errorf("connector digest = %s, want %s", got, connectorGoldenDigest)
	}
}

// TestFogGoldenDigest pins the fog ablation with and without fog verifiers.
func TestFogGoldenDigest(t *testing.T) {
	h := sha256.New()
	for _, fogNodes := range []int{0, 4} {
		res, err := RunFogAblation(5, 20, 20*time.Millisecond, fogNodes)
		if err != nil {
			t.Fatal(err)
		}
		writeJSON(t, h, res)
	}
	if got := digest(h); got != fogGoldenDigest {
		t.Errorf("fog digest = %s, want %s", got, fogGoldenDigest)
	}
}
