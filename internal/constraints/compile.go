package constraints

import (
	"fmt"

	"schemanet/internal/bitset"
	"schemanet/internal/schema"
)

// conflictIndex is the execute-phase form of a compiled constraint set Γ
// (see DESIGN.md, "Compiled conflict index"). It is built once per
// network by compileAll and is immutable afterwards, so it is safe to
// share across goroutines.
//
// The pairwise constraints collapse into one shared conflict matrix:
// rows[c] is the union of every pairwise constraint's conflict row for
// c, making the pairwise part of HasConflict a single AndCount. Gated
// constraints keep their own HasConflict behind a word-wise
// participation-mask early-out and stream their violations to Repair.
type conflictIndex struct {
	rows []*bitset.Set // merged conflict matrix; rows[c] nil = empty row
	// extra holds multiplicity layers for Repair's victim counting:
	// extra[k][c] contains d iff at least k+2 pairwise constraints
	// declare {c, d} conflicting. Layers are nested (extra[k+1][c] ⊆
	// extra[k][c]) and virtually always absent — they only exist when
	// distinct pairwise constraints overlap on the same pair, in which
	// case ConflictsWith reports one violation per constraint and
	// Repair's victim counts must match.
	extra [][]*bitset.Set
	gates []gatedConstraint

	// retiredMask marks the candidates the network tombstoned
	// (schema.Network.RetireCandidate); they are blocked from
	// Maximize/Maximal so no instance ever acquires them. nil while the
	// network has none.
	retiredMask *bitset.Set
}

// chainConstraint is a gated constraint as the index runs it. Repair
// enumerates its violations with ForEachChain, which streams each
// violation's members through fn without materializing Violation
// values, reusing scratch across calls. The enumerated violations must
// be exactly those ConflictsWith would return.
type chainConstraint interface {
	Constraint
	ForEachChain(inst *bitset.Set, c int, scratch []int, fn func(members []int) bool) []int
}

// gatedConstraint pairs a non-pairwise constraint with its compiled
// participation masks.
type gatedConstraint struct {
	con   chainConstraint
	masks []*bitset.Set
	min   []int
}

// compileAll runs the compile phase over Γ and merges the results. It
// accepts the two shapes the index runs and panics, naming the
// constraint, on any other: a pairwise constraint needs no more than
// its rows, and a gated one must stream its chains (Repair's victim
// accounting). The retired mask is the network's tombstones; the
// constraints emit no row and no gate mask for a retired candidate.
func compileAll(net *schema.Network, cons []Constraint) *conflictIndex {
	n := net.NumCandidates()
	idx := &conflictIndex{rows: make([]*bitset.Set, n)}
	for c := 0; c < n; c++ {
		if net.Retired(c) {
			if idx.retiredMask == nil {
				idx.retiredMask = bitset.New(n)
			}
			idx.retiredMask.Add(c)
		}
	}
	for _, con := range cons {
		comp := con.Compile()
		switch {
		case comp.Pairwise():
			symmetrize(comp.ConflictRows)
			idx.merge(n, comp.ConflictRows)
		case comp.Gated():
			chains, ok := con.(chainConstraint)
			if !ok {
				panic(fmt.Sprintf("constraints: gated constraint %q does not implement ForEachChain", con.Name()))
			}
			idx.gates = append(idx.gates, gatedConstraint{con: chains, masks: comp.GateMasks, min: comp.GateMin})
		default:
			panic(fmt.Sprintf("constraints: constraint %q compiles to neither a pairwise nor a gated form", con.Name()))
		}
	}
	return idx
}

// symmetrize closes the conflict rows under symmetry. Maximize relies on
// d ∈ rows[c] ⟺ c ∈ rows[d] to propagate a blocked mask from instance
// members to candidates; both built-in pairwise constraints already emit
// symmetric rows, this guards pluggable ones.
func symmetrize(rows []*bitset.Set) {
	n := len(rows)
	for c := 0; c < n; c++ {
		if rows[c] == nil {
			continue
		}
		cc := c
		rows[cc].ForEach(func(d int) bool {
			if rows[d] == nil {
				rows[d] = bitset.New(n)
			}
			rows[d].Add(cc)
			return true
		})
	}
}

// merge folds one pairwise constraint's conflict rows into the shared
// matrix, routing already-present pairs into the multiplicity layers.
// The matrix takes over the constraint's rows where it has none yet
// (Compiled's rows belong to the engine).
func (idx *conflictIndex) merge(n int, rows []*bitset.Set) {
	for c := 0; c < n; c++ {
		r := rows[c]
		if r == nil || r.Empty() {
			continue
		}
		if idx.rows[c] == nil {
			idx.rows[c] = r
			continue
		}
		ov := r.Clone()
		ov.IntersectWith(idx.rows[c])
		idx.rows[c].UnionWith(r)
		for k := 0; !ov.Empty(); k++ {
			if len(idx.extra) <= k {
				idx.extra = append(idx.extra, make([]*bitset.Set, n))
			}
			layer := idx.extra[k]
			if layer[c] == nil {
				layer[c] = ov
				break
			}
			next := ov.Clone()
			next.IntersectWith(layer[c])
			layer[c].UnionWith(ov)
			ov = next
		}
	}
}

// multiplicity returns how many pairwise constraints declare {c, d}
// conflicting (≥1; callers only ask about pairs present in rows[c]).
func (idx *conflictIndex) multiplicity(c, d int) int {
	m := 1
	for _, layer := range idx.extra {
		if layer[c] == nil || !layer[c].Has(d) {
			break // layers are nested: a miss ends the chain
		}
		m++
	}
	return m
}

// gatePasses reports whether candidate c clears gate g on inst: the
// instance holds at least min[c] candidates that could complete a
// violation with c. A nil mask means c can never be in violation.
func (g *gatedConstraint) gatePasses(inst *bitset.Set, c int) bool {
	return g.masks[c] != nil && inst.AndCount(g.masks[c]) >= g.min[c]
}

// slowConflict evaluates the non-pairwise part of HasConflict: each gated
// constraint's own check behind its early-out.
func (idx *conflictIndex) slowConflict(inst *bitset.Set, c int) bool {
	for i := range idx.gates {
		g := &idx.gates[i]
		if g.gatePasses(inst, c) && g.con.HasConflict(inst, c) {
			return true
		}
	}
	return false
}
