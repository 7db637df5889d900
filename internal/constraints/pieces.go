package constraints

import (
	"sort"

	"schemanet/internal/bitset"
)

// LivePieces partitions the live members of one component under the
// feedback (approved, disapproved) into pieces: the independent
// factors of the component's conditioned instance space.
//
// A live member is unasserted, not retired, and does not conflict with
// approved. Every other unasserted member is in no instance. A piece is
// a connected class of live members under the violations among them:
// approved members are contracted out of each violation (they are in
// every instance), and a violation through a disapproved or non-live
// member is dropped (it can never be completed). A matching instance is
// then approved plus one maximal consistent subset per piece, chosen
// independently, so instance counts multiply and each member's marginal
// reads off its own piece (see DESIGN.md, "Component decomposition").
//
// Pieces come ordered by smallest member, members ascending. A piece
// with one member has no violation: that member is in every instance.
// The violations are streamed from the conflict rows and the gated
// constraints' chain visitors, and only members are visited, so
// re-partitioning one piece after an assertion costs O(piece). Pieces
// only split under feedback: an assertion changes only the violations
// through the asserted candidate, which all lie inside its piece.
//
// approved must be consistent; callers detect contradictory approvals
// first. LivePieces only reads compiled material and is safe for
// concurrent use.
func (e *Engine) LivePieces(members []int, approved, disapproved *bitset.Set) [][]int {
	retired := e.idx.retiredMask
	list := make([]int, 0, len(members))
	for _, c := range members {
		if approved.Has(c) || disapproved.Has(c) || (retired != nil && retired.Has(c)) ||
			e.HasConflict(approved, c) {
			continue
		}
		list = append(list, c)
	}
	switch len(list) {
	case 0:
		return nil
	case 1:
		return [][]int{list}
	}
	// inst = F+ ∪ live: a violation with all its members in inst is one
	// that a live member can still complete, and its members outside F+
	// are exactly its contraction. Each member leaves inst once its
	// chains are streamed, so every chain is streamed once, from its
	// first live member. A live member conflicts with no approved one,
	// so a conflict row's members in inst are live.
	inst := approved.Clone()
	for _, c := range list {
		inst.Add(c)
	}
	uf := unionFind{parent: make([]int32, len(list)), rank: make([]int8, len(list))}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	var i, c int
	pos := func(d int) int { return sort.SearchInts(list, d) }
	rowFn := func(d int) bool {
		if d > c {
			uf.union(i, pos(d))
		}
		return true
	}
	chainFn := func(chain []int) bool {
		for _, d := range chain {
			if d != c && !approved.Has(d) {
				uf.union(i, pos(d))
			}
		}
		return true
	}
	var scratch []int
	for i, c = range list {
		if r := e.idx.rows[c]; r != nil {
			r.ForEachAnd(inst, rowFn)
		}
		for gi := range e.idx.gates {
			g := &e.idx.gates[gi]
			if g.gatePasses(inst, c) {
				scratch = g.con.ForEachChain(inst, c, scratch, chainFn)
			}
		}
		inst.Remove(c)
	}
	// Pieces in order of their smallest member, members ascending:
	// piece[r] is 1 + the index in out of root r's piece.
	piece := make([]int, len(list))
	var out [][]int
	for j, d := range list {
		r := uf.find(j)
		if piece[r] == 0 {
			out = append(out, nil)
			piece[r] = len(out)
		}
		out[piece[r]-1] = append(out[piece[r]-1], d)
	}
	return out
}
