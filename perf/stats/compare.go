package stats

import "math"

// Verdicts of Compare.
const (
	// Better: the new side wins at least nine tenths of the pairs and its
	// median beats the base median by more than the base's own spread.
	Better = "better"
	// Worse: the new median is worse than the base median by more than the
	// bound.
	Worse = "worse"
	// Within: neither a resolved gain nor a regression beyond the bound.
	Within = "within-bound"
	// Unresolved: a side's spread exceeds the bound, so a difference of the
	// bound's size cannot be told from noise.
	Unresolved = "unresolved"
)

// Comparison is one metric's base-versus-new verdict.
type Comparison struct {
	Base Summary `json:"base"`
	New  Summary `json:"new"`
	// Change is (new median - base median) / |base median|.
	Change float64 `json:"change"`
	// Pairs is how many (base, new) pairs were formed, in run order.
	Pairs int `json:"pairs"`
	// WinShare is the share of pairs the new side won; ties count for
	// neither side.
	WinShare float64 `json:"win_share"`
	Verdict  string  `json:"verdict"`
}

// Compare judges the new runs of one metric against the base runs. lower
// says whether lower values are better; bound is the share of the base
// median by which the new median may worsen before it is a regression.
// Runs pair in order (base[i] with new[i]), which is how alternating
// base/new runs are meant to be recorded.
//
// The rule: a new median worse than the base median by more than bound is
// Worse, unless a side's spread exceeds bound, which makes it Unresolved.
// A gain is Better only when the new side wins at least 90% of the pairs and
// the medians differ by more than the base's interquartile range. Every
// new run beating every base run settles the verdict either way, whatever
// the spreads.
func Compare(base, new []float64, lower bool, bound float64) Comparison {
	c := Comparison{Base: Summarize(base), New: Summarize(new)}
	if len(base) == 0 || len(new) == 0 {
		c.Verdict = Unresolved
		return c
	}
	if c.Base.Median != 0 {
		c.Change = (c.New.Median - c.Base.Median) / math.Abs(c.Base.Median)
	} else if c.New.Median != 0 {
		c.Change = math.Inf(1)
	}
	better := func(a, b float64) bool { // a is better than b
		if lower {
			return a < b
		}
		return a > b
	}
	c.Pairs = len(base)
	if len(new) < c.Pairs {
		c.Pairs = len(new)
	}
	wins := 0
	for i := 0; i < c.Pairs; i++ {
		if better(new[i], base[i]) {
			wins++
		}
	}
	c.WinShare = float64(wins) / float64(c.Pairs)

	worsening := c.Change
	if !lower {
		worsening = -c.Change
	}
	allBetter := better(minOrMax(new, lower), minOrMax(base, !lower))
	allWorse := better(minOrMax(base, lower), minOrMax(new, !lower))
	noisy := c.Base.Spread > bound || c.New.Spread > bound
	gain := c.WinShare >= 0.9 && math.Abs(c.New.Median-c.Base.Median) > c.Base.Q3-c.Base.Q1 && worsening < 0
	switch {
	case allBetter && gain:
		c.Verdict = Better
	case allWorse && worsening > bound:
		c.Verdict = Worse
	case noisy:
		c.Verdict = Unresolved
	case worsening > bound:
		c.Verdict = Worse
	case gain:
		c.Verdict = Better
	default:
		c.Verdict = Within
	}
	return c
}

// minOrMax returns the worst value of vs for the direction: the largest
// when lower is better, the smallest otherwise. Passing !lower gives the
// best value instead.
func minOrMax(vs []float64, lower bool) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if (lower && v > m) || (!lower && v < m) {
			m = v
		}
	}
	return m
}
