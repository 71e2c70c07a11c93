package scenario

import (
	"fmt"
	"testing"

	"blackdp/internal/core"
	"blackdp/internal/radio"
	"blackdp/internal/wire"
)

// TestIsolationLedger holds a case's isolation packets to the isolation
// frames actually sent. The backbone carries only isolation's revocation
// requests and notices, and its frame counter counts them per wire kind
// whoever sent them; each isolation adds the isolating head's one blacklist
// broadcast, counted by HeadAgentStats.Revocations. It runs the Figure 5
// worlds, one case each, and the Table I world under a cooperative attack
// in cluster 2.
func TestIsolationLedger(t *testing.T) {
	check := func(name string, ct *core.CaseTally, backbone radio.Stats, heads []*core.HeadAgent) {
		t.Helper()
		sent := backbone.SentFrames.ByKind
		want := int(sent[wire.KindRevocationReq] + sent[wire.KindRevocationNotice])
		for _, h := range heads {
			want += int(h.Stats().Revocations)
		}
		if ct.IsolationPackets != want {
			t.Errorf("%s: case counts %d isolation packets, %d were sent (backbone %v)", name, ct.IsolationPackets, want, sent)
		}
	}

	for _, cat := range Fig5Categories() {
		for seed := int64(1); seed <= 3; seed++ {
			w, err := newFig5World(cat, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := w.run()
			if err != nil {
				t.Fatal(err)
			}
			if cat.attacker() && res.Case.IsolationPackets == 0 {
				t.Errorf("%v seed %d: an attacker was isolated with no isolation packets", cat, seed)
			}
			check(fmt.Sprintf("%v seed %d", cat, seed), &res.Case, w.env.Backbone.Stats(), w.heads)
		}
	}

	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.AttackerCluster = 2
	cfg.Attack = CooperativeBlackHole
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Sched.Release()
	o := w.Run()
	if !o.Detected || !o.TeammateDetected {
		t.Fatalf("cooperative world: attacker or teammate not detected: %+v", o)
	}
	cases := w.Env.Tally.Cases()
	if len(cases) != 1 {
		t.Fatalf("cooperative world: %d tally cases, want 1", len(cases))
	}
	heads := make([]*core.HeadAgent, 0, len(w.Heads))
	for _, h := range w.Heads {
		heads = append(heads, h)
	}
	check("table I cooperative", cases[0], w.Env.Backbone.Stats(), heads)
	if o.IsolationPackets != cases[0].IsolationPackets {
		t.Errorf("outcome reports %d isolation packets, its case %d", o.IsolationPackets, cases[0].IsolationPackets)
	}
}
