package constraints

import (
	"sort"

	"schemanet/internal/bitset"
	"schemanet/internal/schema"
)

// KindMutex names the mutual-exclusion constraint.
const KindMutex = "mutual-exclusion"

// MutualExclusion is a user-defined constraint declaring that certain
// pairs of attributes must never be matched together (directly or not):
// if any candidate touches attribute a and another touches attribute b,
// and (a, b) is declared exclusive, selecting both is a violation.
//
// The paper imposes no assumptions on the constraint definitions
// (§II-B); this type demonstrates the pluggable Constraint interface
// with domain knowledge like "billing and shipping addresses are
// different concepts". It is not part of the paper's Γ.
type MutualExclusion struct {
	net *schema.Network
	// exclusive maps attribute → the attributes it excludes, sorted
	// ascending and deduplicated, so every scan over a partner set —
	// and therefore the order of ConflictsWith and Violations — is
	// deterministic regardless of declaration order.
	exclusive map[schema.AttrID][]schema.AttrID
}

// NewMutualExclusion builds the constraint from exclusive attribute
// pairs (order within a pair is irrelevant).
func NewMutualExclusion(net *schema.Network, pairs [][2]schema.AttrID) *MutualExclusion {
	m := &MutualExclusion{
		net:       net,
		exclusive: make(map[schema.AttrID][]schema.AttrID),
	}
	var keys []schema.AttrID
	add := func(a, b schema.AttrID) {
		if _, ok := m.exclusive[a]; !ok {
			keys = append(keys, a)
		}
		m.exclusive[a] = append(m.exclusive[a], b)
	}
	for _, p := range pairs {
		add(p[0], p[1])
		add(p[1], p[0])
	}
	for _, a := range keys {
		excl := m.exclusive[a]
		sort.Slice(excl, func(i, j int) bool { return excl[i] < excl[j] })
		dedup := excl[:1]
		for _, b := range excl[1:] {
			if b != dedup[len(dedup)-1] {
				dedup = append(dedup, b)
			}
		}
		m.exclusive[a] = dedup
	}
	return m
}

// Name implements Constraint.
func (m *MutualExclusion) Name() string { return KindMutex }

// Compile implements Constraint. Like one-to-one the constraint is
// purely pairwise: row[c] holds every candidate covering the other side
// of an exclusive attribute pair touched by c. Retired candidates get no
// row and never appear as partners.
func (m *MutualExclusion) Compile() Compiled {
	n := m.net.NumCandidates()
	rows := make([]*bitset.Set, n)
	for c := 0; c < n; c++ {
		if m.net.Retired(c) {
			continue
		}
		cand := m.net.Candidate(c)
		for _, a := range [2]schema.AttrID{cand.A, cand.B} {
			for _, b := range m.exclusive[a] {
				for _, d := range m.net.CandidatesOf(b) {
					if d == c {
						continue
					}
					if rows[c] == nil {
						rows[c] = bitset.New(n)
					}
					rows[c].Add(d)
				}
			}
		}
	}
	return Compiled{ConflictRows: rows}
}

// conflictPartners calls fn for every inst member that, together with
// candidate c, covers an exclusive attribute pair. fn returning false
// stops the scan.
func (m *MutualExclusion) conflictPartners(inst *bitset.Set, c int, fn func(d int) bool) {
	cand := m.net.Candidate(c)
	for _, a := range [2]schema.AttrID{cand.A, cand.B} {
		excl := m.exclusive[a]
		if len(excl) == 0 {
			continue
		}
		for _, b := range excl {
			for _, d := range m.net.CandidatesOf(b) {
				if d == c || !inst.Has(d) {
					continue
				}
				if !fn(d) {
					return
				}
			}
		}
	}
}

// HasConflict implements Constraint.
func (m *MutualExclusion) HasConflict(inst *bitset.Set, c int) bool {
	found := false
	m.conflictPartners(inst, c, func(int) bool {
		found = true
		return false
	})
	return found
}

// ConflictsWith implements Constraint.
func (m *MutualExclusion) ConflictsWith(inst *bitset.Set, c int) []Violation {
	var out []Violation
	seen := make(map[int]bool)
	m.conflictPartners(inst, c, func(d int) bool {
		if !seen[d] {
			seen[d] = true
			out = append(out, newViolation(KindMutex, c, d))
		}
		return true
	})
	return out
}

// Violations implements Constraint.
func (m *MutualExclusion) Violations(inst *bitset.Set) []Violation {
	var out []Violation
	inst.ForEach(func(c int) bool {
		m.conflictPartners(inst, c, func(d int) bool {
			if c < d {
				out = append(out, newViolation(KindMutex, c, d))
			}
			return true
		})
		return true
	})
	return out
}
