// Package bitset provides a fixed-capacity bit set used to represent
// matching instances (subsets of the candidate correspondence set).
//
// The hot paths of the sampler and the instantiation heuristic operate on
// these sets, so the representation is a flat []uint64 with word-level
// operations (population count, XOR distance) rather than a map.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set over the universe [0, Len()).
// The zero value is unusable; create sets with New.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for n elements.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a set of capacity n containing exactly the given
// indices. It panics if an index is out of range.
func FromIndices(n int, indices ...int) *Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Len returns the capacity of the universe (not the number of members).
func (s *Set) Len() int { return s.n }

// Grow extends the universe capacity to n in place, preserving members
// and — crucially — pointer identity, so sets shared between several
// holders (e.g. compiled gate masks aliased into cycle plans) grow for
// all of them at once. Shrinking is rejected.
func (s *Set) Grow(n int) {
	if n < s.n {
		panic(fmt.Sprintf("bitset: Grow from %d to smaller capacity %d", s.n, n))
	}
	s.n = n
	w := (n + wordBits - 1) / wordBits
	for len(s.words) < w {
		s.words = append(s.words, 0)
	}
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether i is a member.
func (s *Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of members.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all members, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// SetAll adds every element of the universe [0, Len()). Together with
// DifferenceWith it builds complement masks (e.g. the sampler's free set
// C \ I \ F−) without per-element loops.
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if r := s.n % wordBits; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << uint(r)) - 1
	}
}

// NthMember returns the k-th smallest member (0-based), or -1 when k is
// negative or at least Count(). It walks whole words by popcount, so
// selecting a uniform member of a mask is O(Len/64) instead of
// materializing the member slice.
func (s *Set) NthMember(k int) int {
	if k < 0 {
		return -1
	}
	for wi, w := range s.words {
		c := bits.OnesCount64(w)
		if k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			w &= w - 1
		}
		return wi*wordBits + bits.TrailingZeros64(w)
	}
	return -1
}

// ForEachAnd calls fn for every member of s ∩ o in ascending order
// without materializing the intersection. If fn returns false, iteration
// stops early.
func (s *Set) ForEachAnd(o *Set, fn func(i int) bool) {
	s.mustMatch(o)
	for wi, w := range s.words {
		w &= o.words[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of o. Capacities must match.
func (s *Set) CopyFrom(o *Set) {
	s.mustMatch(o)
	copy(s.words, o.words)
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, o.n))
	}
}

// Equal reports whether the two sets have identical members and capacity.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// UnionWith adds all members of o to s.
func (s *Set) UnionWith(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith removes members of s that are not in o.
func (s *Set) IntersectWith(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// DifferenceWith removes all members of o from s.
func (s *Set) DifferenceWith(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Intersects reports whether s and o share at least one member.
func (s *Set) Intersects(o *Set) bool {
	s.mustMatch(o)
	for i, w := range o.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every member of o is also in s.
func (s *Set) ContainsAll(o *Set) bool {
	s.mustMatch(o)
	for i, w := range o.words {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// AndCount returns |s ∩ o| without materializing the intersection.
func (s *Set) AndCount(o *Set) int {
	s.mustMatch(o)
	return AndCountWords(s.words, o.words)
}

// AndNotCount returns |s \ o| without materializing the difference.
func (s *Set) AndNotCount(o *Set) int {
	s.mustMatch(o)
	return AndNotCountWords(s.words, o.words)
}

// Words exposes the backing word slice (bit i of word w is element
// w*64+i). Callers must treat it as read-only; it remains valid only
// until the next mutation of s. It lets word-wise kernels (the
// *CountWords functions) run against a Set without copying.
func (s *Set) Words() []uint64 { return s.words }

// Fingerprint returns a 64-bit hash of the set contents (an FNV-1a fold
// over the words). Two equal sets of equal capacity always share a
// fingerprint; callers deduplicating by fingerprint must still compare
// with Equal on collision.
func (s *Set) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range s.words {
		h ^= w
		h *= prime64
	}
	return h
}

// AndCountWords returns popcount(a AND b) over the common prefix of the
// two word slices (missing words count as zero).
func AndCountWords(a, b []uint64) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}

// AndNotCountWords returns popcount(a AND NOT b); words of a beyond
// len(b) count in full.
func AndNotCountWords(a, b []uint64) int {
	c := 0
	for i, w := range a {
		if i < len(b) {
			w &^= b[i]
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// SymmetricDiffCount returns |s △ o|, the size of the symmetric
// difference. This is the repair-distance metric Δ of the paper when one
// operand is a matching instance and the other the candidate set.
func (s *Set) SymmetricDiffCount(o *Set) int {
	s.mustMatch(o)
	c := 0
	for i, w := range o.words {
		c += bits.OnesCount64(s.words[i] ^ w)
	}
	return c
}

// Members returns the member indices in ascending order.
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for every member in ascending order. If fn returns
// false, iteration stops early.
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

// Key returns a compact string usable as a map key identifying the set
// contents. Two sets of equal capacity have the same key iff Equal.
func (s *Set) Key() string {
	var b strings.Builder
	b.Grow(len(s.words) * 8)
	for _, w := range s.words {
		for i := 0; i < 8; i++ {
			b.WriteByte(byte(w >> (8 * i)))
		}
	}
	return b.String()
}

// String renders the members like "{1, 4, 7}".
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
