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
	live := e.NewInstance()
	var list []int
	for _, c := range members {
		if approved.Has(c) || disapproved.Has(c) || (retired != nil && retired.Has(c)) ||
			e.HasConflict(approved, c) {
			continue
		}
		live.Add(c)
		list = append(list, c)
	}
	if len(list) == 0 {
		return nil
	}
	// inst = F+ ∪ live: a violation with all its members in inst is one
	// that a live member can still complete, and its members outside F+
	// are exactly its contraction. Each member leaves inst once its
	// chains are streamed, so every chain is streamed once, from its
	// first live member.
	inst := live.Clone()
	inst.UnionWith(approved)
	uf := newUnionFind(len(list))
	pos := func(d int) int { return sort.SearchInts(list, d) }
	var scratch []int
	for i, c := range list {
		if r := e.idx.rows[c]; r != nil {
			r.ForEachAnd(live, func(d int) bool {
				if d > c {
					uf.union(i, pos(d))
				}
				return true
			})
		}
		for gi := range e.idx.gates {
			g := &e.idx.gates[gi]
			if !g.gatePasses(inst, c) {
				continue
			}
			scratch = g.con.ForEachChain(inst, c, scratch, func(chain []int) bool {
				for _, d := range chain {
					if d != c && live.Has(d) {
						uf.union(i, pos(d))
					}
				}
				return true
			})
		}
		inst.Remove(c)
	}
	root := make(map[int]int)
	var out [][]int
	for i, c := range list {
		r := uf.find(i)
		k, ok := root[r]
		if !ok {
			k = len(out)
			root[r] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], c)
	}
	return out
}
