// Package workload implements the benchmark's three workloads against the
// repository's stable surfaces only: the root blackdp package, the
// blackdp-serve binary and the serve/client wire client. Nothing here
// imports an internal package, so refactors of the layers below can break
// at worst the traced mode (cmd/perf-traced), never these measurements.
//
// Every workload reports every end-to-end metric (see EndToEnd); each
// metric's meaning on each workload is tabulated in the benchmark's README.
package workload

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"blackdp"
)

// Workload names.
const (
	PaperFig4  = "paper-fig4"
	MetroGrid  = "metro-grid"
	ServeMixed = "serve-mixed"
)

// Names lists the workloads in presentation order.
func Names() []string { return []string{PaperFig4, MetroGrid, ServeMixed} }

// End-to-end metric names and units. Every workload reports all of them.
var EndToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"reps_per_s", "rep/s"},
	{"accuracy", "fraction"},
	{"detection_packets", "packets"},
	{"run_s", "s"},
	{"run_sharded_s", "s"},
	{"jobs_per_s", "job/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// Metric is one measured value with the number of samples behind it.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// Result is one workload run: its metrics, the operations it attempted,
// the ones whose output check failed, and the outcome digests that pin its
// results.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Metrics   map[string]Metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	// Failures describes each failed operation (capped; Failed counts all).
	Failures []string `json:"failures,omitempty"`
	// Digests are SHA-256 digests of the deterministic outputs, in a fixed
	// order; two runs of one seed must produce the same list.
	Digests []string `json:"digests"`
	// Notes carry workload-specific figures that are not metrics.
	Notes map[string]any `json:"notes,omitempty"`
}

// NewResult starts an empty result for the named workload.
func NewResult(name string, seed int64) *Result {
	return &Result{Workload: name, Seed: seed, Metrics: map[string]Metric{}, Notes: map[string]any{}}
}

func (r *Result) set(name string, value float64, samples int) {
	for _, m := range EndToEnd {
		if m.Name == name {
			r.Metrics[name] = Metric{Value: value, Unit: m.Unit, Samples: samples}
			return
		}
	}
	panic("workload: unknown end-to-end metric " + name)
}

// OK counts one attempted operation that passed its checks.
func (r *Result) OK() { r.Attempted++ }

// Fail counts one attempted operation whose output was wrong or missing.
func (r *Result) Fail(format string, args ...any) {
	r.Attempted++
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// Check counts one operation, failed unless cond holds.
func (r *Result) Check(cond bool, format string, args ...any) {
	if cond {
		r.OK()
	} else {
		r.Fail(format, args...)
	}
}

// ErrorRate is failed over attempted operations.
func (r *Result) ErrorRate() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// Options are the inputs every workload takes.
type Options struct {
	// Seed generates the workload's inputs; the same seed gives the same
	// inputs and, for the deterministic outputs, the same digests.
	Seed int64
	// Duration is how long the timed phase measures.
	Duration time.Duration
	// ServeBin is the blackdp-serve executable (serve-mixed only).
	ServeBin string
	// Log receives progress lines for humans; nil discards them.
	Log io.Writer
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Run executes the named workload.
func Run(ctx context.Context, name string, o Options) (*Result, error) {
	switch name {
	case PaperFig4:
		return RunFig4(ctx, o)
	case MetroGrid:
		return RunMetro(ctx, o)
	case ServeMixed:
		return RunServe(ctx, o)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(Names(), ", "))
	}
}

// Derive maps (seed, label, i) to a positive 31-bit simulation seed. The
// workloads draw every config seed through it, so inputs are a pure
// function of the workload seed.
func Derive(seed int64, label string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, i)
	return int64(h.Sum64()&(1<<31-1)) | 1
}

// Digest is the hex SHA-256 of v's JSON encoding.
func Digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("workload: digest of unencodable value: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Procs is the CPU count the workloads size their parallelism by.
func Procs() int { return runtime.NumCPU() }

// ShardWorkers is the intra-run worker count of the sharded runs: one per
// CPU, and at least 2, since fewer selects the serial executor.
func ShardWorkers() int {
	if n := Procs(); n >= 2 {
		return n
	}
	return 2
}

// PeakRSSMiB reads a process's peak resident set size (VmHWM) from
// /proc; pid 0 means this process.
func PeakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in %s", path)
}

// ResetPeakRSS restarts this process's peak resident set size (VmHWM) from
// its current size, so the next PeakRSSMiB(0) reports the peak since now.
func ResetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// Confusion counts the outcomes judged correctly — attacker present and
// convicted, or absent and nobody convicted (the paper's TP+TN) — and
// collects the detection-packet counts of every outcome whose attacker was
// examined.
func Confusion(outcomes []blackdp.Outcome) (correct int, packets []int) {
	for _, o := range outcomes {
		if (o.AttackerPresent && o.Detected) || (!o.AttackerPresent && o.FalseAccusations == 0) {
			correct++
		}
		if o.DetectionPackets > 0 {
			packets = append(packets, o.DetectionPackets)
		}
	}
	return correct, packets
}

func meanInt(vs []int) float64 {
	sum := 0
	for _, v := range vs {
		sum += v
	}
	return float64(sum) / float64(len(vs))
}
