package schema

import "sort"

// Matching is a set of attribute correspondences identified by canonical
// attribute pairs. It represents the selective matching M (ground truth)
// as well as instantiated matchings compared against it.
type Matching struct {
	pairs map[[2]AttrID]bool
}

// NewMatching returns an empty matching.
func NewMatching() *Matching {
	return &Matching{pairs: make(map[[2]AttrID]bool)}
}

// Add inserts the pair {a, b}.
func (m *Matching) Add(a, b AttrID) {
	m.pairs[Correspondence{A: a, B: b}.Pair()] = true
}

// Remove deletes the pair {a, b} if present.
func (m *Matching) Remove(a, b AttrID) {
	delete(m.pairs, Correspondence{A: a, B: b}.Pair())
}

// Contains reports whether the pair {a, b} is in the matching.
func (m *Matching) Contains(a, b AttrID) bool {
	return m.pairs[Correspondence{A: a, B: b}.Pair()]
}

// ContainsCorrespondence reports whether c's attribute pair is in the
// matching.
func (m *Matching) ContainsCorrespondence(c Correspondence) bool {
	return m.pairs[c.Pair()]
}

// Size returns the number of pairs.
func (m *Matching) Size() int { return len(m.pairs) }

// Pairs returns the pairs in deterministic (sorted) order.
func (m *Matching) Pairs() [][2]AttrID {
	out := make([][2]AttrID, 0, len(m.pairs))
	//lint:sorted pairs are collected and sorted below before returning
	for p := range m.pairs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Clone returns an independent copy.
func (m *Matching) Clone() *Matching {
	c := NewMatching()
	//lint:sorted copies a set; insertion order cannot affect it
	for p := range m.pairs {
		c.pairs[p] = true
	}
	return c
}

// IntersectionSize returns |m ∩ o| by pair identity.
func (m *Matching) IntersectionSize(o *Matching) int {
	small, large := m, o
	if o.Size() < m.Size() {
		small, large = o, m
	}
	n := 0
	//lint:sorted counts intersections; a count is order-insensitive
	for p := range small.pairs {
		if large.pairs[p] {
			n++
		}
	}
	return n
}

// CandidateIndices maps the matching onto candidate indices of net,
// dropping pairs that are not candidates. The result is sorted.
func (m *Matching) CandidateIndices(net *Network) []int {
	var out []int
	//lint:sorted indices are collected and sorted (sort.Ints below) before returning
	for p := range m.pairs {
		if i := net.CandidateIndex(p[0], p[1]); i >= 0 {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// MatchingFromCandidates builds a matching from candidate indices of net.
func MatchingFromCandidates(net *Network, indices []int) *Matching {
	m := NewMatching()
	for _, i := range indices {
		c := net.Candidate(i)
		m.Add(c.A, c.B)
	}
	return m
}
