package scenario

import (
	"testing"
	"time"

	"blackdp/internal/core"
	"blackdp/internal/pki"
	"blackdp/internal/radio"
	"blackdp/internal/sim"
	"blackdp/internal/wire"
)

// provisionStats sums the provisioning counters of every authority.
func provisionStats(w *World) pki.ProvisionStats {
	var sum pki.ProvisionStats
	for _, ta := range w.Authorities {
		s := ta.Authority().Stats()
		sum.Issued += s.Issued
		sum.Minted += s.Minted
	}
	return sum
}

// sealedSerials wraps every vehicle's receiver (attackers through their
// interceptors, as World.arm wires them) to record the certificate serial
// of each secure envelope heard. Every sealed frame in these worlds is
// unicast to or relayed through a vehicle, so the set covers every
// credential that sealed. The wrappers only observe.
func sealedSerials(w *World) map[uint64]bool {
	seen := map[uint64]bool{}
	tap := func(h radio.Receiver) radio.Receiver {
		return func(f radio.Frame) {
			if f.Kind() == wire.KindSecure {
				if pkt, err := wire.Decode(f.Payload); err == nil {
					seen[pkt.(*wire.Secure).Cert.Serial] = true
				}
			}
			h(f)
		}
	}
	hostile := map[*core.VehicleAgent]radio.Receiver{}
	if w.AttackerBH != nil {
		hostile[w.Attacker] = w.AttackerBH.HandleFrame
	}
	if w.TeammateBH != nil {
		hostile[w.Teammate] = w.TeammateBH.HandleFrame
	}
	for _, h := range w.Extras {
		hostile[h.Agent] = h.BH.HandleFrame
	}
	for _, v := range w.Vehicles {
		recv, ok := hostile[v]
		if !ok {
			recv = v.HandleFrame
		}
		v.Interface().SetReceiver(tap(recv))
	}
	return seen
}

// TestProvisioningCountsTableI pins the pki layer's share of a Table I world
// under ECDSA: every identity is issued at build, none is minted before the
// run, and the run mints exactly the credentials that sealed a packet or
// presented themselves for renewal — a small fraction of those issued. The
// evasive case adds an attacker renewal: the renewing credential counts,
// while its successor arrives complete from a CSR-style renewal and does
// not.
func TestProvisioningCountsTableI(t *testing.T) {
	evasive := DefaultConfig()
	evasive.AttackerCluster = 3
	evasive.RenewProb = 1
	evasive.EvasiveClusters = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		name           string
		cfg            Config
		issued, minted uint64
		renewals       bool
	}{
		{"table-I", DefaultConfig(), 112, 4, false},
		{"evasive-renewal", evasive, 112, 11, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := provisionStats(w); got != (pki.ProvisionStats{Issued: tc.issued}) {
				t.Fatalf("after build: %+v, want %d issued and nothing minted", got, tc.issued)
			}
			issuedSerials := map[uint64]bool{}
			initial := map[*core.VehicleAgent]uint64{}
			for _, v := range w.Vehicles {
				issuedSerials[v.Credential().Serial()] = true
				initial[v] = v.Credential().Serial()
			}
			for _, h := range w.Heads {
				issuedSerials[h.Credential().Serial()] = true
			}
			seen := sealedSerials(w)

			if got := w.Run(); got != want {
				t.Fatalf("observed run diverged from a plain run:\n got  %+v\n want %+v", got, want)
			}

			used := map[uint64]bool{}
			for s := range seen {
				if issuedSerials[s] {
					used[s] = true
				}
			}
			renewed := 0
			for v, serial := range initial {
				if v.Credential().Serial() != serial {
					used[serial] = true
					renewed++
				}
			}
			if (renewed > 0) != tc.renewals {
				t.Fatalf("%d renewals, want renewals = %v", renewed, tc.renewals)
			}
			got := provisionStats(w)
			if got.Minted != uint64(len(used)) {
				t.Errorf("minted %d, but %d distinct issued credentials sealed or renewed", got.Minted, len(used))
			}
			if got != (pki.ProvisionStats{Issued: tc.issued, Minted: tc.minted}) {
				t.Errorf("after run: %+v, want %d issued and %d minted", got, tc.issued, tc.minted)
			}
			if got.Minted*10 > got.Issued {
				t.Errorf("minted %d of %d issued credentials, want under a tenth", got.Minted, got.Issued)
			}
		})
	}
}

// TestCryptoShardedStripMintsFirst makes the first credentials of a sharded
// real-crypto run mint on strip shards: at 1ms, in one window, a filler
// vehicle on every strip and the source on the anchor each seal a packet
// with their shard's scheme. Minting draws only from each credential's own
// stream, so this must be data-race-free under -race, and — since every
// signature fills one fixed-width slot and no nonce reaches a verdict — the
// run's outcome must equal that of a run whose credentials mint on first
// protocol use.
func TestCryptoShardedStripMintsFirst(t *testing.T) {
	for _, scheme := range []string{SchemeECDSA, SchemeSession} {
		t.Run(scheme, func(t *testing.T) {
			cfg := cryptoDiffConfig(3)
			cfg.CryptoScheme = scheme
			cfg.RunWorkers = 4
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			named := map[*core.VehicleAgent]bool{w.Source: true, w.Destination: true, w.Attacker: true, w.Teammate: true}
			for _, h := range w.Extras {
				named[h.Agent] = true
			}
			type sealer struct {
				v   *core.VehicleAgent
				env core.Env
			}
			sealers := []sealer{{w.Source, w.Env}}
			strips := map[sim.Runtime]bool{}
			for _, v := range w.Vehicles {
				if named[v] {
					continue
				}
				env := w.vehicleEnv(wire.ClusterID(v.Mobile().ClusterAt(0)))
				if !strips[env.Sched] {
					strips[env.Sched] = true
					sealers = append(sealers, sealer{v, env})
				}
			}
			if len(strips) < 2 {
				t.Fatalf("fillers span %d strip shards, want several", len(strips))
			}
			errs := make([]error, len(sealers))
			for i, s := range sealers {
				i, s := i, s
				s.env.Sched.At(time.Millisecond, func() {
					_, errs[i] = pki.Seal(&wire.Hello{Origin: s.v.NodeID()}, s.v.Credential(), s.env.Scheme)
				})
			}
			got, err := w.RunContext(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			for i, err := range errs {
				if err != nil {
					t.Errorf("early seal %d: %v", i, err)
				}
			}
			if got != want {
				t.Errorf("early strip-shard minting changed the outcome:\n got  %+v\n want %+v", got, want)
			}
			if m := provisionStats(w).Minted; m < uint64(len(sealers)) {
				t.Errorf("minted %d, want at least the %d early sealers", m, len(sealers))
			}
		})
	}
}

// TestAllocsBuildTableI is the allocation budget of building a Table I
// world under ECDSA. Minting every credential at build (key generation, DER
// encoding, a TA signature and a seeded key stream per identity) costs
// over 23,000 allocations; lazy provisioning needs about 10,100. The budget
// fails a return to eager provisioning.
func TestAllocsBuildTableI(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	const budget = 12000
	cfg := DefaultConfig()
	got := testing.AllocsPerRun(10, func() {
		if _, err := Build(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("Build(Table I): %.0f allocs/op, budget %d", got, budget)
	}
}
