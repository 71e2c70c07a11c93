package sim

import (
	"io"
	"math"
	"math/rand"
	"testing"
	"time"
)

// lazySourceSeeds returns the seeds the lazy source is pinned on: 1,000
// random seeds plus every edge of math/rand's seed normalisation (zero,
// negatives, multiples of the Lehmer modulus, the zero-seed substitute and
// the int64 extremes).
func lazySourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311, -89482311,
		int32max, -int32max, 2 * int32max, -2 * int32max, 1 << 31 * int32max,
		int32max - 1, int32max + 1, -int32max + 1,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	r := rand.New(rand.NewSource(20261017))
	for len(seeds) < 1018 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestLazySourceMatchesMathRand pins sim.RNG's source to math/rand: after a
// prefix of draws on both sides of the state's allocation (draw rngEarly)
// and of the lazy-to-eager switch (draw 273), every rand.Rand method a
// stream uses must return what a stock rand.NewSource stream returns.
func TestLazySourceMatchesMathRand(t *testing.T) {
	counts := []int{0, 1, rngEarly - 1, rngEarly, rngEarly + 1, 272, 273, 274, 607, 1300}
	for _, seed := range lazySourceSeeds() {
		for _, k := range counts {
			g := NewRNG(seed)
			ref := rand.New(rand.NewSource(seed))
			for i := 0; i < k; i++ {
				if got, want := g.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i, got, want)
				}
			}
			checkSameStream(t, seed, k, g, ref)
		}
	}
}

// checkSameStream compares one pass through every method of g against ref.
func checkSameStream(t *testing.T, seed int64, k int, g *RNG, ref *rand.Rand) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Fatalf("seed %d after %d draws: %s = %v, want %v", seed, k, what, got, want)
	}
	for _, n := range []int64{1, 7, 1 << 20, 1<<62 + 3} {
		if got, want := g.Duration(0, time.Duration(n)), time.Duration(ref.Int63n(n)); got != want {
			fail("Int63n", got, want)
		}
	}
	for _, n := range []int{1, 3, 1000, 1<<31 + 5} {
		if got, want := g.IntN(n), ref.Intn(n); got != want {
			fail("Intn", got, want)
		}
	}
	if got, want := g.Float64(), ref.Float64(); got != want {
		fail("Float64", got, want)
	}
	if got, want := g.Int63(), ref.Int63(); got != want {
		fail("Int63", got, want)
	}
	gp, rp := g.Perm(9), ref.Perm(9)
	for i := range gp {
		if gp[i] != rp[i] {
			fail("Perm", gp, rp)
		}
	}
	ga, ra := []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{0, 1, 2, 3, 4, 5, 6, 7}
	g.Shuffle(len(ga), func(i, j int) { ga[i], ga[j] = ga[j], ga[i] })
	ref.Shuffle(len(ra), func(i, j int) { ra[i], ra[j] = ra[j], ra[i] })
	for i := range ga {
		if ga[i] != ra[i] {
			fail("Shuffle", ga, ra)
		}
	}
	var buf [40]byte
	if _, err := io.ReadFull(g.Reader(), buf[:]); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if want := byte(ref.Intn(256)); b != want {
			fail("Reader byte", b, want)
		}
	}
}

// TestLazySourceReseed holds Seed to math/rand's semantics: reseeding a
// source mid-stream restarts the new seed's stream from its first draw.
func TestLazySourceReseed(t *testing.T) {
	s := newLazySource(5)
	for i := 0; i < 300; i++ {
		s.Uint64()
	}
	s.Seed(-77)
	ref := rand.NewSource(-77).(rand.Source64)
	for i := 0; i < 1300; i++ {
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("draw %d after reseed = %#x, want %#x", i, got, want)
		}
	}
	if got, want := s.Int63(), ref.Int63(); got != want {
		t.Fatalf("Int63 = %d, want %d", got, want)
	}
}

// TestLazySourceEarlyDraws pins the inline early buffer: a stream that stops
// short of rngEarly draws never allocates its state, the next draw does,
// and reseeding before or after that point restarts the stock stream.
func TestLazySourceEarlyDraws(t *testing.T) {
	for _, seed := range lazySourceSeeds()[:64] {
		s := newLazySource(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < rngEarly; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: early draw %d = %#x, want %#x", seed, i, got, want)
			}
		}
		if s.vec != nil {
			t.Fatalf("seed %d: state allocated within the first %d draws", seed, rngEarly)
		}
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, rngEarly, got, want)
		}
		if s.vec == nil {
			t.Fatalf("seed %d: state not allocated by draw %d", seed, rngEarly)
		}
	}
	for _, at := range []int{0, 3, rngEarly, rngEarly + 1, 300} {
		s := newLazySource(11)
		for i := 0; i < at; i++ {
			s.Uint64()
		}
		s.Seed(12)
		ref := rand.NewSource(12).(rand.Source64)
		for i := 0; i < 700; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("reseed after %d draws: draw %d = %#x, want %#x", at, i, got, want)
			}
		}
	}
}
