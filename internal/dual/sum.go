package dual

import (
	"math"
	"math/bits"
)

// Sum adds finite, non-negative float64 terms exactly and rounds the total
// once, so the sum does not depend on the order or grouping of its terms
// (Neal's small superaccumulator, arXiv:1505.05571): partial sums of any
// partition of the terms, merged in any order, round to the same bits as
// one sum of them all. Every finite float64 is an integer below 2^2098
// times 2^-1074; the accumulator keeps the sum of those integers in 32-bit
// digits, word i holding the digit of 2^(32i-1074). A word is an int64 and
// takes a digit below 2^32 per term or merged sum, so Add and Merge carry
// every carryEvery of them, and Round carries once at the end. The zero
// value is an empty sum.
type Sum struct {
	w [68]int64
	n int32 // terms and merged sums added since the last carry
}

// carryEvery keeps every word's magnitude below 2^63: after a carry each
// word is in [0, 2^32), and each term adds less than 2^32 to at most three
// of them, each merged or subtracted (carried) sum less than 2^32 to or
// from every one.
const carryEvery = 1<<31 - 2

// Add adds x, which must be finite and non-negative.
//
//schedvet:hot
func (s *Sum) Add(x float64) {
	b := math.Float64bits(x)
	e, m := b>>52, b&(1<<52-1)
	if e == 0 {
		e = 1 // subnormal: no implicit bit, same scale as the least normal
	} else {
		m |= 1 << 52
	}
	// x = m·2^(sh-1074); m·2^r spans at most 84 bits, so three digits.
	sh := e - 1
	i, r := sh/32, sh%32
	lo, hi := m<<r, m>>(64-r)
	s.w[i] += int64(lo & (1<<32 - 1))
	s.w[i+1] += int64(lo >> 32)
	s.w[i+2] += int64(hi)
	s.count()
}

// Merge adds every term of t to s. t is not modified, so a cached partial
// sum may be merged by concurrent readers; one that Carry normalized
// merges without a copy.
//
//schedvet:hot
func (s *Sum) Merge(t *Sum) {
	if t.n != 0 {
		u := *t
		u.carry()
		t = &u
	}
	for i, x := range t.w {
		s.w[i] += x
	}
	s.count()
}

// Sub removes every term of t from s: t's terms, or a sum that holds
// them, must have been added to s, so that s stays non-negative. A word
// may then go negative, and carry's arithmetic shift floors it, borrowing
// from the next word, so s holds the exact sum of the terms it kept. Like
// Merge, Sub does not modify t.
//
//schedvet:hot
func (s *Sum) Sub(t *Sum) {
	if t.n != 0 {
		u := *t
		u.carry()
		t = &u
	}
	for i, x := range t.w {
		s.w[i] -= x
	}
	s.count()
}

// Carry normalizes the sum, leaving its value unchanged. A partial sum
// that will be merged many times is carried once, when it is complete.
func (s *Sum) Carry() {
	if s.n != 0 {
		s.carry()
	}
}

// count notes one term or merged sum, carrying every carryEvery of them.
func (s *Sum) count() {
	if s.n++; s.n == carryEvery {
		s.carry()
	}
}

// carry propagates every word's excess over 32 bits into the next word,
// and a negative word's borrow too: x>>32 floors, and x&(2^32-1) is then
// the non-negative remainder. Below the top, every word ends in
// [0, 2^32); the top word holds the rest, non-negative while the sum is.
func (s *Sum) carry() {
	for i := 0; i < len(s.w)-1; i++ {
		s.w[i+1] += s.w[i] >> 32
		s.w[i] &= 1<<32 - 1
	}
	s.n = 0
}

// Round returns the sum rounded to nearest, ties to even: +Inf when it
// rounds past math.MaxFloat64. The sum stays usable: more terms may follow.
func (s *Sum) Round() float64 {
	s.carry()
	top := len(s.w) - 1
	for top >= 0 && s.w[top] == 0 {
		top--
	}
	if top < 0 {
		return 0
	}
	p := 32*top + bits.Len64(uint64(s.w[top])) - 1 // the sum's leading bit
	switch {
	case p <= 52: // below 2^-1021: exact, and its bits are the integer
		return math.Float64frombits(uint64(s.w[0]) | uint64(s.w[1])<<32)
	case p >= 2098: // at least 2^1024
		return math.Inf(1)
	}
	// The 53 significant bits and the round bit below them, then the sticky
	// bit of everything lower.
	g := p - 53
	i, r := g/32, uint(g%32)
	v := uint64(s.w[i])>>r | uint64(s.w[i+1])<<(32-r) | uint64(s.w[i+2])<<(64-r)
	sticky := uint64(s.w[i])&(1<<r-1) != 0
	for _, x := range s.w[:i] {
		sticky = sticky || x != 0
	}
	m := v >> 1
	if v&1 != 0 && (sticky || m&1 != 0) {
		m++
	}
	// m·2^(g+1-1074) with 2^52 ≤ m ≤ 2^53: the biased exponent is g+2, so
	// the bits are (g+1)<<52 + m. A carry out of m bumps the exponent, and
	// past the largest exponent it lands exactly on +Inf.
	return math.Float64frombits(uint64(g+1)<<52 + m)
}
