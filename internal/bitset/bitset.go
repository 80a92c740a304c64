// Package bitset provides a dense, fixed-capacity bitset.
//
// RI-DS represents candidate domains as bitmasks over the target graph's
// vertex set ("In RI, domains are implemented as bitmasks", Kimmig et al.
// §4.2.2); this package is that representation. It is deliberately free of
// synchronization: domains are computed once during preprocessing and read
// concurrently afterwards, and the search engines own private scratch sets.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bitset over [0, Len()). The zero value is an empty set of
// capacity zero; use New to create one with capacity.
type Set struct {
	words []uint64
	n     int
}

// New returns a set able to hold bits [0, n), all initially clear.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewBatch returns k empty sets of capacity n carved from one allocation,
// for callers that make many same-sized sets at once (an index's
// threshold rows, a domain computation's blocked sets). The sets never
// share words; callers take their addresses.
func NewBatch(k, n int) []Set {
	if n < 0 || k < 0 {
		panic(fmt.Sprintf("bitset: negative batch %d×%d", k, n))
	}
	nw := (n + wordBits - 1) / wordBits
	words := make([]uint64, k*nw)
	sets := make([]Set, k)
	for i := range sets {
		sets[i] = Set{words: words[i*nw : (i+1)*nw : (i+1)*nw], n: n}
	}
	return sets
}

// Len returns the capacity of the set (number of addressable bits).
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// SetAll sets every bit in [0, Len()).
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// ClearAll clears every bit.
func (s *Set) ClearAll() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// SetRange sets every bit in [lo, hi), a word at a time. The census
// walker uses it to seed its "seen" set with the whole prefix [0, root]
// so the ESU id-order constraint (only extend past the root) falls out
// of the same AndNot that excludes visited neighborhoods. Bounds are
// clamped to [0, Len()); an empty or inverted range is a no-op.
func (s *Set) SetRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return
	}
	lw, hw := lo/wordBits, (hi-1)/wordBits
	lmask := ^uint64(0) << uint(lo%wordBits)
	hmask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if lw == hw {
		s.words[lw] |= lmask & hmask
		return
	}
	s.words[lw] |= lmask
	for i := lw + 1; i < hw; i++ {
		s.words[i] = ^uint64(0)
	}
	s.words[hw] |= hmask
}

// trim clears the unaddressable tail bits of the last word so that Count,
// Empty and Equal see a canonical representation.
func (s *Set) trim() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// Copy overwrites s with the contents of other. The sets must have equal
// capacity.
func (s *Set) Copy(other *Set) {
	s.mustMatch(other)
	copy(s.words, other.words)
}

// And intersects s with other in place.
func (s *Set) And(other *Set) {
	s.mustMatch(other)
	for i := range s.words {
		s.words[i] &= other.words[i]
	}
}

// Or unions other into s in place.
func (s *Set) Or(other *Set) {
	s.mustMatch(other)
	for i := range s.words {
		s.words[i] |= other.words[i]
	}
}

// AndNot removes from s every bit set in other.
func (s *Set) AndNot(other *Set) {
	s.mustMatch(other)
	for i := range s.words {
		s.words[i] &^= other.words[i]
	}
}

// AndNotCount removes from s every bit set in other, like AndNot, and
// returns how many members it removed.
func (s *Set) AndNotCount(other *Set) int {
	s.mustMatch(other)
	c := 0
	for i, w := range s.words {
		if r := w & other.words[i]; r != 0 {
			c += bits.OnesCount64(r)
			s.words[i] = w &^ r
		}
	}
	return c
}

// AndUnion intersects s in place with a ∪ b ∪ {keep} and returns how
// many members s keeps. One of a and b may be nil, contributing no
// members; keep < 0 contributes none either, and keep must be below
// Len(). Intersecting a set that starts full with this union for every
// member w of a domain, with a and b w's adjacency rows, leaves the
// targets that are w or adjacent to w for every w: the induced non-edge
// pass's blocked set.
func (s *Set) AndUnion(a, b *Set, keep int) int {
	if a == nil {
		a, b = b, nil
	}
	s.mustMatch(a)
	had := keep >= 0 && s.Test(keep)
	c := 0
	if b == nil {
		for i, aw := range a.words[:len(s.words)] {
			s.words[i] &= aw
			c += bits.OnesCount64(s.words[i])
		}
	} else {
		s.mustMatch(b)
		bw := b.words[:len(s.words)]
		for i, aw := range a.words[:len(s.words)] {
			s.words[i] &= aw | bw[i]
			c += bits.OnesCount64(s.words[i])
		}
	}
	if had && !s.Test(keep) {
		s.Set(keep)
		c++
	}
	return c
}

// Equal reports whether s and other contain exactly the same bits.
func (s *Set) Equal(other *Set) bool {
	if s.n != other.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether s and other share at least one set bit —
// the word-parallel "non-empty intersection" test the kernel hot paths
// use (arc-consistency support checks), without materializing the
// intersection.
func (s *Set) Intersects(other *Set) bool {
	s.mustMatch(other)
	for i := range s.words {
		if s.words[i]&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// ExistsOutside reports whether s contains a member other than skip
// that is set in neither a nor b. Either (or both) of a and b may be
// nil, meaning "exclude nothing". Pass skip < 0 to exclude no member.
// This is the word-parallel form of the per-candidate induced non-edge
// support test: "does the domain hold a candidate non-adjacent to v?" —
// one pass over the words, no intersection materialized. The domain
// package's induced pass uses it to test a blocked set's last few
// survivors one at a time (see AndUnion).
func (s *Set) ExistsOutside(a, b *Set, skip int) bool {
	if a != nil {
		s.mustMatch(a)
	}
	if b != nil {
		s.mustMatch(b)
	}
	for i, w := range s.words {
		if a != nil {
			w &^= a.words[i]
		}
		if b != nil {
			w &^= b.words[i]
		}
		if w == 0 {
			continue
		}
		if skip >= 0 && skip/wordBits == i {
			w &^= 1 << uint(skip%wordBits)
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// Subset reports whether every bit of s is also set in other.
func (s *Set) Subset(other *Set) bool {
	s.mustMatch(other)
	for i := range s.words {
		if s.words[i]&^other.words[i] != 0 {
			return false
		}
	}
	return true
}

// Next returns the index of the first set bit ≥ i, or -1 if none exists.
// Iterating all members:
//
//	for v := s.Next(0); v >= 0; v = s.Next(v + 1) { ... }
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// ForEach calls fn for every set bit in ascending order. It stops early if
// fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// ForEachAnd calls fn for every bit set in both s and other, in
// ascending order, without materializing the intersection; it stops
// early if fn returns false. The sets must have equal capacity. This is
// the RI-DS candidate loop: a domain ANDed with the parent image's
// adjacency row, a word at a time.
func (s *Set) ForEachAnd(other *Set, fn func(i int) bool) {
	s.mustMatch(other)
	ow := other.words[:len(s.words)]
	for wi, w := range s.words {
		w &= ow[wi]
		for w != 0 {
			if !fn(wi*wordBits + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// CountAfter returns the number of set bits above i (members j > i).
// A negative i counts every member.
func (s *Set) CountAfter(i int) int {
	if i < 0 {
		return s.Count()
	}
	if i >= s.n {
		return 0
	}
	wi := i / wordBits
	// A shift by 64 yields 0, so bit 63 of a word needs no special case.
	c := bits.OnesCount64(s.words[wi] >> uint(i%wordBits+1))
	for _, w := range s.words[wi+1:] {
		c += bits.OnesCount64(w)
	}
	return c
}

// Members appends the indices of all set bits to dst and returns it.
func (s *Set) Members(dst []int) []int {
	s.ForEach(func(i int) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// First returns the lowest set bit, or -1 if the set is empty. For a
// singleton domain this is the unique member.
func (s *Set) First() int { return s.Next(0) }

// String renders the set as "{1, 5, 9}" — intended for tests and debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) mustMatch(other *Set) {
	if s.n != other.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, other.n))
	}
}
