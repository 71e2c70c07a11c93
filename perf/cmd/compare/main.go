// Command compare judges a new set of benchmark runs against a base set.
// Each set is a file or a directory of files holding the runs' standard
// output; every record line in them is read. For each workload and each
// end-to-end metric of the spec it prints both sides' median and quartiles,
// the change of the medians, the share of (base, new) pairs the new side
// won, and a verdict: better, worse (beyond the metric's bound),
// within-bound, or unresolved (a side's spread exceeds the bound).
//
// Runs pair in the order they appear — files by name, lines in order — so
// record alternating base/new runs in matching order. It exits 1 when any
// verdict is worse.
//
//	cd perf && go run ./cmd/compare -spec ../BENCHMARK.json ../runs/base ../runs/new
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"blackdp/perf/stats"
	"blackdp/perf/workload"
)

// spec is the part of BENCHMARK.json the comparer reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition with each metric's direction and bound")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] BASE NEW")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	base, err := loadRecords(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	next, err := loadRecords(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	worse := report(os.Stdout, sp, base, next)
	if worse {
		os.Exit(1)
	}
}

func loadSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("parsing %s: %w", path, err)
	}
	return sp, nil
}

// loadRecords reads the untraced record lines under path, grouped by
// workload in reading order.
func loadRecords(path string) (map[string][]workload.Record, error) {
	var files []string
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
	} else {
		files = []string{path}
	}
	out := map[string][]workload.Record{}
	for _, f := range files {
		if err := readRecords(f, out); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	return out, nil
}

func readRecords(path string, out map[string][]workload.Record) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.Contains(string(line[:min(len(line), 64)]), `"record":"`+workload.RecordSchema+`"`) {
			continue
		}
		var r workload.Record
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return sc.Err()
}

// report prints one table per workload present on both sides and returns
// whether any metric came out worse.
func report(w io.Writer, sp spec, base, next map[string][]workload.Record) (worse bool) {
	var names []string
	for wl := range base {
		if _, ok := next[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "no workload has records on both sides")
	}
	for _, wl := range names {
		b, n := base[wl], next[wl]
		fmt.Fprintf(w, "%s: %d base runs, %d new runs\n", wl, len(b), len(n))
		fmt.Fprintf(w, "  %-18s %-30s %-30s %8s %5s  %s\n", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "wins", "verdict")
		for _, m := range sp.EndToEnd {
			bv, nv := values(b, m.Name), values(n, m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			c := stats.Compare(bv, nv, m.Better == "lower", m.Bound)
			if c.Verdict == stats.Worse {
				worse = true
			}
			fmt.Fprintf(w, "  %-18s %-30s %-30s %+7.1f%% %4.0f%%  %s (bound %.0f%%)\n", m.Name,
				fmtSummary(c.Base, m.Unit), fmtSummary(c.New, m.Unit), 100*c.Change, 100*c.WinShare, c.Verdict, 100*m.Bound)
		}
		var errs []string
		for side, rs := range map[string][]workload.Record{"base": b, "new": n} {
			for _, r := range rs {
				if r.Failed > 0 {
					errs = append(errs, fmt.Sprintf("%s seed %d: %d of %d operations failed", side, r.Seed, r.Failed, r.Attempted))
				}
			}
		}
		sort.Strings(errs)
		for _, e := range errs {
			fmt.Fprintln(w, "  !", e)
		}
	}
	return worse
}

func values(rs []workload.Record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func fmtSummary(s stats.Summary, unit string) string {
	return fmt.Sprintf("%.4g %s [%.4g, %.4g]", s.Median, unit, s.Q1, s.Q3)
}
