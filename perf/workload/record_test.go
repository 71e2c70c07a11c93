package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func lastLine(t *testing.T, out string) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	return m
}

func TestEmitPrintsExactlyTheResultKeysLast(t *testing.T) {
	r := NewResult(MetroGrid, 4)
	r.set("setup_s", 1.25, 3)
	r.set("run_s", 9.5, 1)
	r.OK()
	var buf bytes.Buffer
	correct, err := Emit(&buf, NewRecord(r, 20, false, Provenance{}), []string{"setup_s", "run_s"})
	if err != nil || !correct {
		t.Fatalf("Emit = %v, %v", correct, err)
	}
	m := lastLine(t, buf.String())
	if len(m) != 4 || m["correct"] == nil || m["attempted"] == nil || m["failed"] == nil || m["metrics"] == nil {
		t.Fatalf("result keys %v", m)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(m["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 2 || metrics["run_s"]["value"] != 9.5 || metrics["run_s"]["unit"] != "s" || len(metrics["run_s"]) != 2 {
		t.Fatalf("metrics %v", metrics)
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], `"record":"`+RecordSchema+`"`) {
		t.Fatal("the record line does not come first")
	}
}

func TestEmitFailsOnMissingOrNonFiniteMetric(t *testing.T) {
	r := NewResult(PaperFig4, 1)
	r.set("setup_s", math.NaN(), 1)
	r.OK()
	var buf bytes.Buffer
	correct, err := Emit(&buf, NewRecord(r, 20, false, Provenance{}), []string{"setup_s", "run_s"})
	if err != nil {
		t.Fatal(err)
	}
	if correct || string(lastLine(t, buf.String())["correct"]) != "false" {
		t.Fatal("a NaN and a missing metric must make the run incorrect")
	}
}

func TestFailedChecksCountInTheErrorRate(t *testing.T) {
	r := NewResult(ServeMixed, 1)
	r.Check(true, "fine")
	r.Check(false, "op %d broke", 7)
	r.OK()
	r.OK()
	if r.Attempted != 4 || r.Failed != 1 || r.ErrorRate() != 0.25 {
		t.Fatalf("attempted %d failed %d rate %v", r.Attempted, r.Failed, r.ErrorRate())
	}
	if len(r.Failures) != 1 || r.Failures[0] != "op 7 broke" {
		t.Fatalf("failures %q", r.Failures)
	}
}
