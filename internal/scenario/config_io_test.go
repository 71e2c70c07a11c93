package scenario

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestConfigSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.AttackerCluster = 7
	cfg.Attack = CooperativeBlackHole
	cfg.ExtraAttackers = 2
	cfg.EvasiveClusters = []int{8, 9, 10}

	if err := SaveConfig(cfg, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || got.AttackerCluster != 7 || got.Attack != CooperativeBlackHole ||
		got.ExtraAttackers != 2 || len(got.EvasiveClusters) != 3 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got.Vehicles != 100 || got.CertValidity != cfg.CertValidity {
		t.Errorf("defaults lost in round trip: %+v", got)
	}
}

func TestLoadConfigPartialFileLayersOverDefaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "partial.json")
	if err := os.WriteFile(path, []byte(`{"Seed": 9, "AttackerCluster": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 9 || got.AttackerCluster != 3 {
		t.Errorf("overrides not applied: %+v", got)
	}
	if got.Vehicles != 100 || got.HighwayLengthM != 10_000 || !got.Vehicle.Verify {
		t.Errorf("defaults not layered: %+v", got)
	}
}

func TestLoadConfigRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"AttackerCluster": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bad); err == nil {
		t.Error("invalid config accepted")
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte(`{{{`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(garbage); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadedConfigRunsIdentically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.AttackerCluster = 5
	if err := SaveConfig(cfg, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("run from saved config diverged:\n a=%+v\n b=%+v", a, b)
	}
}

// TestDecodeConfigIsStrict: a field Config does not have — a typo, or one a
// later release removed — is an error naming the field, and so is any data
// after the document; neither may silently change the run.
func TestDecodeConfigIsStrict(t *testing.T) {
	for _, field := range []string{"RealCrypto", "LinearScan", "NoVerifyCache", "Vehicels"} {
		_, err := DecodeConfig([]byte(`{"Seed":3,"` + field + `":false}`))
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: err = %v, want an error naming the field", field, err)
		}
	}
	// Protocol timers and cache sizes are constants now; a document that
	// still sets one names the nested field it cannot place.
	for field, doc := range map[string]string{
		"Router":       `{"Vehicle":{"Router":{"TTL":2}}}`,
		"ProbeTimeout": `{"Head":{"ProbeTimeout":1}}`,
		"DReqTimeout":  `{"Vehicle":{"Verify":true,"DReqTimeout":8000000000}}`,
	} {
		_, err := DecodeConfig([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: err = %v, want an error naming %s", doc, err, field)
		}
	}
	for _, doc := range []string{`{"Seed":3} {"Seed":4}`, `{"Seed":3}}`, `{"Seed":3} x`} {
		if _, err := DecodeConfig([]byte(doc)); err == nil {
			t.Errorf("%s: trailing data accepted", doc)
		}
	}
	cfg, err := DecodeConfig([]byte(" {\"Seed\":3}\n"))
	if err != nil || cfg.Seed != 3 || cfg.CryptoScheme != SchemeECDSA {
		t.Errorf("padded document: cfg %+v, err %v", cfg, err)
	}
}

// FuzzDecodeConfig: strict decoding never panics, every accepted document
// canonicalises, and its canonical bytes strictly decode back to the same
// canonical bytes — the fixed point the serve cache key and durable-journal
// recovery rely on.
func FuzzDecodeConfig(f *testing.F) {
	for _, seed := range []string{
		`{"Seed":3,"HighwayLengthM":4000,"Vehicles":30,"AttackerCluster":2,"DataPackets":5,"MaxSimTime":45000000000,"CryptoScheme":"placeholder"}`,
		`{"Seed":5,"HighwayLengthM":4000,"Vehicles":30,"AttackerCluster":2,"DataPackets":5,"MaxSimTime":45000000000,"CryptoScheme":"session","RunWorkers":4}`,
		`{"Seed":9,"AttackerCluster":3,"EvasiveClusters":[10,8,9,8],"Trace":true}`,
		`{"Topology":"grid","GridRows":3,"GridCols":3,"AttackerCluster":5}`,
		`{"Fault":{"HeadCrashes":[{"Cluster":4,"At":2000000000}],"Burst":{"LossBad":0.3,"GoodToBad":0.1,"BadToGood":0.2}}}`,
		`{"Seed":3,"RealCrypto":false}`,
		`{"LinearScan":true,"NoVerifyCache":true}`,
		`{"Vehicle":{"Router":{"TTL":2}}}`,
		`{"Head":{"ProbeTimeout":1}}`,
		`{"Vehicles":30,"Head":{"FogNodes":-5}}`,
		`{"Head":{"AuthProcessing":-1,"StageDelay":-1}}`,
		`{"Vehicle":{"Verify":true,"DReqRetries":-2}}`,
		`{"Vehicle":{"DReqRetries":0},"Head":{"StageDelay":50000000,"FogNodes":4,"SingleProbe":true}}`,
		`{"BackboneLatency":-1}`,
		`{"Vehicles":4611686018427387904}`,
		`{"HighwayLengthM":1e12}`,
		`{"ClusterLengthM":0.001}`,
		`{"Topology":"multi","HighwayCount":64,"HighwayLengthM":1e9}`,
		`{"CryptoScheme":"rot13"}`,
		`{"Seed":1} {"Seed":2}`,
		`{}`,
		`{"Seed":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		cfg, err := DecodeConfig(doc)
		if err != nil {
			return
		}
		canon, err := Canonical(cfg)
		if err != nil {
			t.Fatalf("accepted %q but cannot canonicalise it: %v", doc, err)
		}
		back, err := DecodeConfig(canon)
		if err != nil {
			t.Fatalf("canonical form %s does not decode: %v", canon, err)
		}
		again, err := Canonical(back)
		if err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not a fixed point (err %v):\n first  %s\n second %s", err, canon, again)
		}
	})
}
