package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected cut points are what Python's statistics.quantiles(vs, n=4)
// prints for the same inputs.
func TestQuantilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, []float64{1.25, 2.5, 3.75}},
		{[]float64{3.5, 1.25, 9, 2}, []float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 1}, []float64{0, 3, 6}},
		{[]float64{10.2, 10.9, 10.4, 10.6, 11.3, 10.5, 10.8, 10.1, 10.7, 12.0}, []float64{10.35, 10.65, 11.0}},
		{[]float64{7}, []float64{7, 7, 7}},
	}
	for _, c := range cases {
		got := Quantiles(c.in, 4)
		if len(got) != len(c.want) {
			t.Fatalf("Quantiles(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("Quantiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if Quantiles(nil, 4) != nil {
		t.Error("no values must give no cut points")
	}
}

func TestQuantilesDoNotReorderInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Quantiles(in, 4)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input reordered: %v", in)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := Median([]float64{4, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("empty median must be NaN")
	}
	vs := make([]float64, 200)
	for i := range vs {
		vs[i] = float64(200 - i) // 200..1, reversed on purpose
	}
	if p := Percentile(vs, 50); p != 100 {
		t.Errorf("p50 = %v, want 100", p)
	}
	if p := Percentile(vs, 95); p != 190 {
		t.Errorf("p95 = %v, want 190", p)
	}
	if p := Percentile(vs, 100); p != 200 {
		t.Errorf("p100 = %v, want 200", p)
	}
	if p := Percentile([]float64{9}, 95); p != 9 {
		t.Errorf("single-sample p95 = %v", p)
	}
	if n := BeyondPercentile(200, 95); n != 10 {
		t.Errorf("beyond p95 of 200 = %d, want 10", n)
	}
	if n := BeyondPercentile(199, 95); n != 9 {
		t.Errorf("beyond p95 of 199 = %d, want 9", n)
	}
}

func TestSummarizeSpread(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Median != 5.5 || !near(s.Q1, 2.75) || !near(s.Q3, 8.25) {
		t.Fatalf("summary = %+v", s)
	}
	if !near(s.Spread, 1.0) {
		t.Errorf("spread = %v, want 1", s.Spread)
	}
	if s := Summarize([]float64{2, 2, 2}); s.Spread != 0 {
		t.Errorf("constant spread = %v", s.Spread)
	}
	if s := Summarize([]float64{-1, 0, 1, 0}); !math.IsInf(s.Spread, 1) {
		t.Errorf("zero-median spread = %v, want +Inf", s.Spread)
	}
}
