package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"blackdp"
)

// small is a flag-only world: few vehicles, few packets and placeholder
// signatures, a few milliseconds per run.
var small = []string{"-seed", "7", "-vehicles", "30", "-cluster", "2", "-data", "3", "-scheme", "placeholder"}

// TestSimSmoke builds the binary and drives it through its flag surface:
// JSON output, a config file with one overriding flag, a rejected attack
// name and a trace dump.
func TestSimSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "blackdp-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// A cooperative attack on a four-cluster highway: no flag sets the
	// highway's length, and the -attack default is single.
	conf := filepath.Join(dir, "small.json")
	if err := os.WriteFile(conf, []byte(`{"Seed":3,"HighwayLengthM":4000,"Vehicles":30,"Attack":3,"AttackerCluster":2,"DataPackets":3,"CryptoScheme":"placeholder"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, args ...string) ([]byte, int) {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return out, exit.ExitCode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return out, 0
	}
	decode := func(t *testing.T, out []byte) blackdp.Outcome {
		t.Helper()
		var o blackdp.Outcome
		if err := json.Unmarshal(out, &o); err != nil {
			t.Fatalf("stdout is not an Outcome: %v\n%s", err, out)
		}
		return o
	}

	t.Run("json", func(t *testing.T) {
		out, code := run(t, append([]string{"-json"}, small...)...)
		if code != 0 {
			t.Fatalf("exit %d", code)
		}
		if o := decode(t, out); o.Seed != 7 || !o.AttackerPresent || o.AttackerCluster != 2 {
			t.Errorf("outcome %+v, want seed 7 with an attacker in cluster 2", o)
		}
	})

	t.Run("config with a set flag", func(t *testing.T) {
		out, code := run(t, "-config", conf, "-seed", "9", "-json")
		if code != 0 {
			t.Fatalf("exit %d", code)
		}
		o := decode(t, out)
		// -seed was set, so it wins; -attack, -cluster and -data were not,
		// so the file's cooperative attack in cluster 2 and its 3 packets
		// stand against the flag defaults (single, random, 10).
		if o.Seed != 9 || !o.Cooperative || o.AttackerCluster != 2 || o.DataSent > 3 {
			t.Errorf("outcome %+v, want seed 9, a cooperative attacker in cluster 2 and at most 3 packets sent", o)
		}
	})

	t.Run("unknown attack", func(t *testing.T) {
		if _, code := run(t, append([]string{"-attack", "bogus"}, small...)...); code != 2 {
			t.Errorf("exit %d, want 2", code)
		}
	})

	t.Run("trace", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.trace")
		if _, code := run(t, "-config", conf, "-trace", path); code != 0 {
			t.Fatalf("exit %d", code)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Error("trace dump is empty")
		}
	})
}
