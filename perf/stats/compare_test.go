package stats

import "testing"

func series(base float64, jitter ...float64) []float64 {
	out := make([]float64, len(jitter))
	for i, j := range jitter {
		out[i] = base + j
	}
	return out
}

var tenJitter = []float64{-0.3, 0.2, -0.1, 0.4, 0, -0.2, 0.1, 0.3, -0.4, 0.05}

func TestCompareVerdicts(t *testing.T) {
	base := series(10, tenJitter...) // spread ~5%
	cases := []struct {
		name  string
		new   []float64
		lower bool
		bound float64
		want  string
	}{
		{"same code, same numbers", series(10, tenJitter...), true, 0.1, Within},
		{"clear speed-up", series(8, tenJitter...), true, 0.1, Better},
		{"clear slow-down beyond bound", series(12, tenJitter...), true, 0.1, Worse},
		{"slow-down inside bound", series(10.5, tenJitter...), true, 0.1, Within},
		{"higher-is-better gain", series(12, tenJitter...), false, 0.1, Better},
		{"higher-is-better loss", series(8, tenJitter...), false, 0.1, Worse},
		{"noisy new side", []float64{5, 15, 6, 14, 7, 13, 8, 12, 9, 11}, true, 0.1, Unresolved},
		{"bound tighter than the noise", series(10.2, tenJitter...), true, 0.01, Unresolved},
	}
	for _, c := range cases {
		got := Compare(base, c.new, c.lower, c.bound)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
}

func TestCompareWinShareCountsTiesForNeither(t *testing.T) {
	base := []float64{1, 2, 3, 4}
	new := []float64{0.5, 2, 3.5, 3}
	c := Compare(base, new, true, 0.5)
	if c.Pairs != 4 || c.WinShare != 0.5 {
		t.Fatalf("pairs %d win share %v, want 4 and 0.5", c.Pairs, c.WinShare)
	}
}

func TestCompareDominanceSettlesNoisySides(t *testing.T) {
	// Both sides are noisy beyond the bound, but every new run is faster
	// than every base run and the gap exceeds the base's spread.
	base := []float64{20, 24, 21, 23, 22, 25, 20.5, 24.5, 21.5, 23.5}
	new := []float64{10, 14, 11, 13, 12, 15, 10.5, 14.5, 11.5, 13.5}
	if c := Compare(base, new, true, 0.05); c.Verdict != Better {
		t.Fatalf("verdict %q, want %q", c.Verdict, Better)
	}
	if c := Compare(new, base, true, 0.05); c.Verdict != Worse {
		t.Fatalf("reverse verdict %q, want %q", c.Verdict, Worse)
	}
}

func TestCompareEmptySideIsUnresolved(t *testing.T) {
	if c := Compare(nil, []float64{1}, true, 0.1); c.Verdict != Unresolved {
		t.Fatalf("verdict %q", c.Verdict)
	}
}
