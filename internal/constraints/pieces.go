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
// first. LivePieces only reads compiled material; its working memory is
// sc, held by the caller, so the engine stays safe for concurrent use
// while a caller that re-partitions repeatedly (the PMN, after every
// assertion on a piece) allocates nothing once sc is warm. The pieces
// alias sc and are valid until sc's next use; a nil sc uses fresh
// memory, and the pieces are then the caller's.
func (e *Engine) LivePieces(members []int, approved, disapproved *bitset.Set, sc *PieceScratch) [][]int {
	if sc == nil {
		sc = &PieceScratch{}
	}
	retired := e.idx.retiredMask
	list := sc.list[:0]
	for _, c := range members {
		if approved.Has(c) || disapproved.Has(c) || (retired != nil && retired.Has(c)) ||
			e.HasConflict(approved, c) {
			continue
		}
		list = append(list, c)
	}
	sc.list = list
	switch len(list) {
	case 0:
		return nil
	case 1:
		sc.out = append(sc.out[:0], list)
		return sc.out
	}
	// inst = F+ ∪ live: a violation with all its members in inst is one
	// that a live member can still complete, and its members outside F+
	// are exactly its contraction. Each member leaves inst once its
	// chains are streamed, so every chain is streamed once, from its
	// first live member. A live member conflicts with no approved one,
	// so a conflict row's members in inst are live.
	if sc.inst == nil || sc.inst.Len() != approved.Len() {
		sc.inst = bitset.New(approved.Len())
	}
	inst := sc.inst
	inst.CopyFrom(approved)
	for _, c := range list {
		inst.Add(c)
	}
	sc.bind(len(list), approved)
	for sc.i, sc.c = range list {
		c := sc.c
		if r := e.idx.rows[c]; r != nil {
			r.ForEachAnd(inst, sc.rowFn)
		}
		for gi := range e.idx.gates {
			g := &e.idx.gates[gi]
			if g.gatePasses(inst, c) {
				sc.chain = g.con.ForEachChain(inst, c, sc.chain, sc.chainFn)
			}
		}
		inst.Remove(c)
	}
	sc.approved = nil
	return sc.group()
}

// PieceScratch is the working memory of LivePieces — the live list, the
// F+ ∪ live mask, the union-find, the chain buffer and the pieces
// themselves — kept by one caller across calls. Its two visitors are
// bound to method values once, so streaming conflict rows and chains
// allocates nothing per call. The zero value is ready to use; a
// PieceScratch must not be shared between goroutines.
type PieceScratch struct {
	list  []int // live members, ascending
	inst  *bitset.Set
	uf    unionFind
	chain []int
	piece []int   // union-find root -> 1 + its piece's index
	sizes []int   // piece sizes
	flat  []int   // members grouped by piece
	out   [][]int // the pieces, slices of flat

	// Per-call state of the visitors: the live member being streamed
	// (its position i in list, its id c) and F+.
	i, c     int
	approved *bitset.Set
	rowFn    func(d int) bool
	chainFn  func(chain []int) bool
}

// bind resets the union-find to n singletons and binds the visitors.
func (sc *PieceScratch) bind(n int, approved *bitset.Set) {
	if sc.rowFn == nil {
		sc.rowFn, sc.chainFn = sc.visitRow, sc.visitChain
	}
	if cap(sc.uf.parent) < n {
		sc.uf.parent, sc.uf.rank = make([]int32, n), make([]int8, n)
	}
	sc.uf.parent, sc.uf.rank = sc.uf.parent[:n], sc.uf.rank[:n]
	for i := range sc.uf.parent {
		sc.uf.parent[i], sc.uf.rank[i] = int32(i), 0
	}
	sc.approved = approved
}

// pos returns live member d's position in list.
func (sc *PieceScratch) pos(d int) int { return sort.SearchInts(sc.list, d) }

// visitRow links the streamed member to a conflict partner after it in
// the list; earlier partners linked it when they were streamed.
func (sc *PieceScratch) visitRow(d int) bool {
	if d > sc.c {
		sc.uf.union(sc.i, sc.pos(d))
	}
	return true
}

// visitChain links the streamed member to every other unapproved member
// of one chain: the chain's contraction.
func (sc *PieceScratch) visitChain(chain []int) bool {
	for _, d := range chain {
		if d != sc.c && !sc.approved.Has(d) {
			sc.uf.union(sc.i, sc.pos(d))
		}
	}
	return true
}

// group lays the union-find classes out as pieces in order of their
// smallest member, members ascending, each a slice of flat.
func (sc *PieceScratch) group() [][]int {
	n := len(sc.list)
	if cap(sc.piece) < n {
		sc.piece, sc.flat = make([]int, n), make([]int, n)
	}
	piece, flat := sc.piece[:n], sc.flat[:n]
	clear(piece)
	// Number the pieces by first member and count their sizes, then cut
	// flat into the pieces and place the members.
	sizes := sc.sizes[:0]
	for j := range sc.list {
		r := sc.uf.find(j)
		if piece[r] == 0 {
			sizes = append(sizes, 0)
			piece[r] = len(sizes)
		}
		sizes[piece[r]-1]++
	}
	out := sc.out[:0]
	start := 0
	for _, size := range sizes {
		out = append(out, flat[start:start:start+size])
		start += size
	}
	for j, d := range sc.list {
		k := piece[sc.uf.find(j)] - 1
		out[k] = append(out[k], d)
	}
	sc.sizes, sc.out = sizes, out
	return out
}
