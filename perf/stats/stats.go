// Package stats holds the order statistics the benchmark reports and the
// verdict rule its comparer applies. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), so a spread
// computed here matches one computed from the same values in Python.
package stats

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of vs.
func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// Quantiles returns the n-1 cut points dividing vs into n groups of equal
// probability, by the exclusive method of Python's statistics.quantiles. A
// single value yields n-1 copies of itself; no values yield nil.
func Quantiles(vs []float64, n int) []float64 {
	if n < 1 || len(vs) == 0 {
		return nil
	}
	data := sorted(vs)
	ld := len(data)
	out := make([]float64, 0, n-1)
	if ld == 1 {
		for i := 1; i < n; i++ {
			out = append(out, data[0])
		}
		return out
	}
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out = append(out, (data[j-1]*float64(n-delta)+data[j]*float64(delta))/float64(n))
	}
	return out
}

// Median is the middle value of vs (the mean of the two middle values for
// an even count); NaN for no values.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sorted(vs)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// Percentile is the nearest-rank p-th percentile (0 < p <= 100) of vs, the
// rule the simulator's own metrics package uses; NaN for no values.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 || p <= 0 {
		return math.NaN()
	}
	s := sorted(vs)
	if p > 100 {
		p = 100
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// BeyondPercentile is how many of n samples lie strictly beyond the
// nearest-rank p-th percentile — the sample count a tail figure rests on.
func BeyondPercentile(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// Summary is the five figures a metric's runs are reported by.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3 - Q1) / |Median|: the run-to-run noise as a share of
	// the typical value. It is +Inf when the median is 0 and the quartiles
	// differ, and 0 when all values are equal.
	Spread float64 `json:"spread"`
}

// Summarize reports vs by median, quartiles and relative spread.
func Summarize(vs []float64) Summary {
	s := Summary{N: len(vs), Median: Median(vs)}
	if len(vs) == 0 {
		return s
	}
	q := Quantiles(vs, 4)
	s.Q1, s.Q3 = q[0], q[2]
	s.Spread = relSpread(s.Q1, s.Q3, s.Median)
	return s
}

// relSpread is (q3 - q1) / |median|, with the zero-median cases defined as
// in Summary.Spread.
func relSpread(q1, q3, median float64) float64 {
	iqr := q3 - q1
	if iqr == 0 {
		return 0
	}
	if median == 0 {
		return math.Inf(1)
	}
	return iqr / math.Abs(median)
}
