package sim

import (
	"io"
	"math/rand"
	"time"
)

// RNG is a deterministic random stream for simulation decisions. Distinct
// protocol layers should use distinct streams (via Split) so that adding a
// random draw in one layer does not perturb another layer's sequence.
//
// A stream is seeded lazily: its source is built on the first draw, not at
// construction. Many split streams of a world are never drawn from — the
// key stream of every identity that never signs, for one — so they cost one
// seed word instead of a seeded source. The source emits exactly the
// stream of math/rand's rand.NewSource(seed), but fills its 607 words of
// state as draws first read them (see lazySource), so a stream that draws
// a few values, such as a router's Hello jitter, never pays for the rest.
// A stream, like the source behind it, is not safe for concurrent use.
type RNG struct {
	r    *rand.Rand // nil until the first draw
	seed int64
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// rand returns the stream's source, seeding it on first use.
func (g *RNG) rand() *rand.Rand {
	if g.r == nil {
		g.r = rand.New(newLazySource(g.seed))
	}
	return g.r
}

// Split derives an independent child stream from this stream's state and a
// label. Two children with different labels are decorrelated; the same label
// drawn at the same point in the parent sequence replays identically. The
// parent's draw happens here, so a split advances the parent by exactly one
// draw whether or not the child is ever used.
func (g *RNG) Split(label string) *RNG {
	// 64-bit FNV-1a of the label, as hash/fnv computes it, without the
	// hasher and byte-slice allocations.
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRNG(int64(h) ^ g.rand().Int63())
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.rand().Float64() }

// IntN returns a uniform draw in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.rand().Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.rand().Int63() }

// Uint64 returns a uniform uint64.
func (g *RNG) Uint64() uint64 { return g.rand().Uint64() }

// Bool returns true with probability p (clamped to [0, 1]).
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.rand().Float64() < p
}

// Range returns a uniform draw in [lo, hi). It panics if hi < lo; lo == hi
// returns lo.
func (g *RNG) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("sim: RNG.Range with hi < lo")
	}
	if hi == lo {
		return lo
	}
	return lo + g.rand().Float64()*(hi-lo)
}

// Duration returns a uniform draw in [lo, hi). It panics if hi < lo; lo == hi
// returns lo.
func (g *RNG) Duration(lo, hi time.Duration) time.Duration {
	if hi < lo {
		panic("sim: RNG.Duration with hi < lo")
	}
	if hi == lo {
		return lo
	}
	return lo + time.Duration(g.rand().Int63n(int64(hi-lo)))
}

// Jitter returns a uniform draw in [0, max).
func (g *RNG) Jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(g.rand().Int63n(int64(max)))
}

// Reader returns an io.Reader view of the stream, for seeding key
// generation deterministically.
func (g *RNG) Reader() io.Reader { return rngReader{g} }

type rngReader struct{ g *RNG }

func (r rngReader) Read(p []byte) (int, error) {
	src := r.g.rand()
	for i := range p {
		p[i] = byte(src.Intn(256))
	}
	return len(p), nil
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.rand().Perm(n) }

// Shuffle randomises the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.rand().Shuffle(n, swap) }
