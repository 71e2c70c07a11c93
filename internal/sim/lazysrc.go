package sim

import "math/rand"

// lazySource is a rand.Source64 that emits exactly the stream of
// rand.NewSource(seed) while filling its 607-word state on demand.
//
// math/rand seeds word i from x_k = seed·48271^k mod (2³¹−1), the Lehmer
// generator stepped 21+3i, 22+3i and 23+3i times, so rand.NewSource runs
// 1,841 steps before the first draw. Here a table of 48271^(21+3i) turns
// word i into three multiply-mods, and a word is filled only when a draw
// first reads it. Draw n of the lagged-Fibonacci recurrence reads words
// 333−n (feed) and 606−n (tap); for n < 273 neither was touched by an
// earlier draw, so those draws fill just their two words. The 273rd draw
// fills the 61 words still unfilled, and from then on the source runs the
// stock recurrence. A stream that draws ten values fills twenty words.
//
// The 607-word state itself is allocated only when a stream outgrows its
// first rngEarly draws. Until then the feed word draw k writes is kept in
// early[k]; the tap word it read was never written, so building the state
// later recomputes it. A stream that draws a few values, such as a
// router's Hello jitter, allocates nothing beyond the source itself.
type lazySource struct {
	vec       *[rngLen]int64 // nil until draw rngEarly
	early     [rngEarly]int64
	seed      uint64 // normalised to [1, 2³¹−2], as math/rand does
	tap, feed int
	lazy      int // draws left before every word is filled
}

// Constants of math/rand's generator (src/math/rand/rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus
	lehmerA  = 48271
	rngEarly = 24 // draws served before the state is allocated; < rngTap
)

var _ rand.Source64 = (*lazySource)(nil)

// rngPow[i] is 48271^(21+3i) mod (2³¹−1): the step that reaches word i's
// first Lehmer value.
var rngPow = func() (p [rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * lehmerA % int32max
	}
	for i := range p {
		p[i] = x
		x = x * lehmerA % int32max * lehmerA % int32max * lehmerA % int32max
	}
	return p
}()

func newLazySource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source: it resets the source to the stream of
// rand.NewSource(seed). A state already allocated is kept and refilled
// lazily, as the first draws fill it.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.lazy = rngTap
}

// word returns seeded state word i, as math/rand's Seed computes it.
func (s *lazySource) word(i int) int64 {
	x := s.seed * rngPow[i] % int32max
	u := int64(x) << 40
	x = x * lehmerA % int32max
	u ^= int64(x) << 20
	x = x * lehmerA % int32max
	u ^= int64(x)
	return u ^ rngCooked[i]
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	if s.vec == nil {
		if k := rngTap - s.lazy; k < rngEarly {
			// Draw k reads words 333−k (feed) and 606−k (tap), both
			// untouched by earlier draws.
			s.lazy--
			x := s.word(rngLen-rngTap-1-k) + s.word(rngLen-1-k)
			s.early[k] = x
			return uint64(x)
		}
		s.grow()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.lazy > 0 {
		s.vec[s.feed] = s.word(s.feed)
		s.vec[s.tap] = s.word(s.tap)
		if s.lazy--; s.lazy == 0 {
			// Draws so far filled words feed..606; the rest lie below.
			for i := 0; i < s.feed; i++ {
				s.vec[i] = s.word(i)
			}
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// grow allocates the state after the first rngEarly draws: their feed
// words as they wrote them, their tap words as seeded, and the cursors
// where those draws left them. The lazy fill takes over from there.
func (s *lazySource) grow() {
	s.vec = new([rngLen]int64)
	for k, x := range s.early {
		s.vec[rngLen-rngTap-1-k] = x
		s.vec[rngLen-1-k] = s.word(rngLen - 1 - k)
	}
	s.tap, s.feed = rngLen-rngEarly, rngLen-rngTap-rngEarly
}
