package constraints

import (
	"schemanet/internal/bitset"
	"schemanet/internal/schema"
)

// KindOneToOne names the one-to-one constraint.
const KindOneToOne = "one-to-one"

// OneToOne implements the one-to-one constraint of §II-A: each attribute
// of one schema is matched to at most one attribute of any other schema.
// Two candidates violate it iff they share exactly one attribute and
// their remaining endpoints belong to the same schema.
type OneToOne struct {
	net *schema.Network
}

// NewOneToOne binds the constraint to a network.
func NewOneToOne(net *schema.Network) *OneToOne {
	return &OneToOne{net: net}
}

// Name implements Constraint.
func (o *OneToOne) Name() string { return KindOneToOne }

// Compile implements Constraint. The constraint is purely pairwise, so
// it emits the full conflict adjacency: row[c] holds every candidate
// that shares an attribute with c and maps it into the same schema —
// the conflictPartners predicate evaluated once against the whole
// candidate universe instead of per instance. Retired candidates get no
// row — and never appear as partners, since they are absent from the
// network's per-attribute index.
func (o *OneToOne) Compile() Compiled {
	n := o.net.NumCandidates()
	rows := make([]*bitset.Set, n)
	for c := 0; c < n; c++ {
		if o.net.Retired(c) {
			continue
		}
		cand := o.net.Candidate(c)
		for _, shared := range [2]schema.AttrID{cand.A, cand.B} {
			otherSchema := o.net.SchemaOf(o.net.Other(c, shared))
			for _, d := range o.net.CandidatesOf(shared) {
				if d == c {
					continue
				}
				if o.net.SchemaOf(o.net.Other(d, shared)) == otherSchema {
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

// conflictPartners calls fn for every inst member that pairwise-conflicts
// with candidate c; it stops early if fn returns false.
func (o *OneToOne) conflictPartners(inst *bitset.Set, c int, fn func(d int) bool) {
	cand := o.net.Candidate(c)
	for _, shared := range [2]schema.AttrID{cand.A, cand.B} {
		otherSchema := o.net.SchemaOf(o.net.Other(c, shared))
		for _, d := range o.net.CandidatesOf(shared) {
			if d == c || !inst.Has(d) {
				continue
			}
			if o.net.SchemaOf(o.net.Other(d, shared)) == otherSchema {
				if !fn(d) {
					return
				}
			}
		}
	}
}

// HasConflict implements Constraint.
func (o *OneToOne) HasConflict(inst *bitset.Set, c int) bool {
	found := false
	o.conflictPartners(inst, c, func(int) bool {
		found = true
		return false
	})
	return found
}

// ConflictsWith implements Constraint.
func (o *OneToOne) ConflictsWith(inst *bitset.Set, c int) []Violation {
	var out []Violation
	o.conflictPartners(inst, c, func(d int) bool {
		out = append(out, newViolation(KindOneToOne, c, d))
		return true
	})
	return out
}

// Violations implements Constraint. Each conflicting pair is reported
// once (from the perspective of its smaller index).
func (o *OneToOne) Violations(inst *bitset.Set) []Violation {
	var out []Violation
	inst.ForEach(func(c int) bool {
		o.conflictPartners(inst, c, func(d int) bool {
			if c < d {
				out = append(out, newViolation(KindOneToOne, c, d))
			}
			return true
		})
		return true
	})
	return out
}
