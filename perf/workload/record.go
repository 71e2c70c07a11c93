package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// RecordSchema tags the record line so readers can find it in a run's
// output.
const RecordSchema = "blackdp-perf/1"

// Record is everything one benchmark run measured, stamped with its
// provenance. It is printed as one JSON line before the result line, and
// is what the comparer reads.
type Record struct {
	Schema     string            `json:"record"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Seconds    float64           `json:"seconds"`
	Provenance Provenance        `json:"provenance"`
	Metrics    map[string]Metric `json:"metrics"`
	// Unavailable names the metrics this run could not measure, each with
	// the reason.
	Unavailable map[string]string `json:"unavailable,omitempty"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	ErrorRate   float64           `json:"error_rate"`
	Failures    []string          `json:"failures,omitempty"`
	Digests     []string          `json:"digests"`
	Notes       map[string]any    `json:"notes,omitempty"`
}

// NewRecord wraps a workload result.
func NewRecord(r *Result, seconds float64, trace bool, prov Provenance) *Record {
	return &Record{
		Schema: RecordSchema, Workload: r.Workload, Seed: r.Seed, Trace: trace, Seconds: seconds,
		Provenance: prov, Metrics: r.Metrics, Attempted: r.Attempted, Failed: r.Failed,
		ErrorRate: r.ErrorRate(), Failures: r.Failures, Digests: r.Digests, Notes: r.Notes,
	}
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

// Emit prints the record line and then the result line: correctness, the
// operation counts, and exactly the named metrics. A named metric the
// record lacks, or one that is not a finite number, makes the run
// incorrect and is reported on stderr.
func Emit(w io.Writer, rec *Record, names []string) (correct bool, err error) {
	correct = rec.Failed == 0 && rec.Attempted > 0
	// JSON has no NaN or infinity: such a value moves to Unavailable.
	for n, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			if rec.Unavailable == nil {
				rec.Unavailable = map[string]string{}
			}
			rec.Unavailable[n] = fmt.Sprintf("not a finite number (%v)", m.Value)
			delete(rec.Metrics, n)
		}
	}
	final := finalLine{Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]finalMetric{}}
	for _, n := range names {
		m, ok := rec.Metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perf: metric %s missing or not finite (%v)\n", n, m.Value)
			correct = false
			continue
		}
		final.Metrics[n] = finalMetric{Value: m.Value, Unit: m.Unit}
	}
	if final.Attempted < 1 {
		final.Attempted = 1
		final.Failed = 1
	}
	final.Correct = correct
	recLine, err := json.Marshal(rec)
	if err != nil {
		return false, err
	}
	last, err := json.Marshal(final)
	if err != nil {
		return false, err
	}
	if _, err := fmt.Fprintf(w, "%s\n%s\n", recLine, last); err != nil {
		return false, err
	}
	return correct, nil
}
