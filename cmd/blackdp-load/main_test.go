package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadSmoke builds the binary and drives a two-client soak against its
// in-process server, with unique seeds and with one shared config, and
// checks that a malformed -api-key is refused.
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "blackdp-load")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	soak := []string{"-clients", "2", "-jobs", "1", "-reps", "1", "-tenants", "2"}
	for _, tc := range []struct {
		name     string
		args     []string
		wantExit int // 0, or -1 for any failure
		wantOut  string
	}{
		{"unique seeds", append([]string{"-saturate=false"}, soak...), 0, "overall: 2 jobs done"},
		{"shared config", append([]string{"-shared"}, soak...), 0, "overall:"},
		{"malformed api key", []string{"-api-key", "no-key-here"}, -1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.wantExit == 0 && code != 0:
				t.Fatalf("exit %d, want 0\n%s", code, out)
			case tc.wantExit < 0 && code == 0:
				t.Fatalf("exit 0, want a failure\n%s", out)
			}
			if !strings.Contains(string(out), tc.wantOut) {
				t.Errorf("output lacks %q:\n%s", tc.wantOut, out)
			}
		})
	}
}
