package constraints

import (
	"sort"

	"schemanet/internal/bitset"
)

// Dynamic-network support: Engine.Grow and Engine.Retire mutate the
// compiled conflict index in place when the bound network gains
// candidates (schema or candidate arrival) or loses one (retire),
// without recompiling the rows of unaffected candidates.
//
// Concurrency contract: Grow and Retire mutate shared compiled state
// (the conflict index is shared by every Fork), so callers must
// externally serialize them against ALL engine use — queries included.
// The serving layer does this with a topology lock that excludes every
// reader while a topology op runs.

// Growable is implemented by pairwise constraints that can emit conflict
// rows incrementally: CompileFrom(oldN) returns rows only for candidates
// at index oldN and above (partners may be anywhere in the universe);
// CompileFrom(0) must equal Compile. The built-in OneToOne and
// MutualExclusion implement it.
type Growable interface {
	CompileFrom(oldN int) Compiled
}

// Rebuildable is implemented by constraints that hold an internal index
// over the network (e.g. Cycle's cycle enumeration) and can refresh it
// from the live network after a topology change. Engine.Grow/Retire call
// RebuildIndex before re-reading the constraint's compilation.
type Rebuildable interface {
	RebuildIndex()
}

// Grow extends the compiled conflict index after the network gained
// candidates: every candidate index in [oldN, NumCandidates()) is new.
// Rows and cycle-participation masks of pre-existing candidates are kept
// (widened in place, so forks sharing the index see the change) and only
// the new candidates' conflict pairs are compiled and folded in.
func (e *Engine) Grow(oldN int) {
	// No early-out on n == oldN: growing can add candidates, but it can
	// also add a schema with no candidates yet — the cycle index still
	// needs a rebuild (new interaction-graph vertices change its plans),
	// and the incremental row loop below is simply empty.
	n := e.net.NumCandidates()
	e.widenIndex(n)

	// Refresh internal constraint indexes from the grown network before
	// reading any compilation off them.
	for _, con := range e.cons {
		if rb, ok := con.(Rebuildable); ok {
			rb.RebuildIndex()
		}
	}

	// Count, per conflict pair, how many pairwise constraints declare it.
	// Every pair emitted by CompileFrom involves at least one new
	// candidate, so none of them can pre-exist in the shared matrix.
	type pair [2]int
	declared := make(map[pair]int)
	for _, con := range e.cons {
		gr, ok := con.(Growable)
		if !ok {
			continue
		}
		comp := gr.CompileFrom(oldN)
		if comp.ConflictRows == nil {
			continue
		}
		seen := make(map[pair]bool)
		for c := oldN; c < n; c++ {
			r := comp.ConflictRows[c]
			if r == nil {
				continue
			}
			cc := c
			r.ForEach(func(d int) bool {
				k := pair{cc, d}
				if d < cc {
					k = pair{d, cc}
				}
				// Dedup within this constraint: rows among new candidates
				// are (usually) symmetric, so each pair shows up twice.
				if !seen[k] {
					seen[k] = true
					declared[k]++
				}
				return true
			})
		}
	}
	//lint:sorted addPair/addExtraPair are commutative set inserts; the fold is order-insensitive
	for k, m := range declared {
		a, b := k[0], k[1]
		e.addPair(a, b, n)
		for l := 0; l < m-1; l++ {
			e.addExtraPair(l, a, b, n)
		}
	}

	e.reEmitGates()
	e.growPartition(oldN)
}

// Retire removes candidate c from the compiled conflict index after the
// network tombstoned it (schema.Network.RetireCandidate). The
// candidate's conflict row is cleared in both directions, it joins the
// retired mask blocking Maximize/Maximal from ever re-acquiring it, and
// the cycle index is rebuilt so no chain plan passes through it.
func (e *Engine) Retire(c int) {
	n := e.net.NumCandidates()
	if e.idx.retiredMask == nil {
		e.idx.retiredMask = bitset.New(n)
	}
	e.idx.retiredMask.Add(c)

	for _, con := range e.cons {
		if rb, ok := con.(Rebuildable); ok {
			rb.RebuildIndex()
		}
	}

	if r := e.idx.rows[c]; r != nil {
		r.ForEach(func(d int) bool {
			if e.idx.rows[d] != nil {
				e.idx.rows[d].Remove(c)
			}
			for _, layer := range e.idx.extra {
				if layer[d] != nil {
					layer[d].Remove(c)
				}
			}
			return true
		})
		e.idx.rows[c] = nil
	}
	for _, layer := range e.idx.extra {
		layer[c] = nil
	}

	e.reEmitGates()
	e.retirePartition(c)
}

// RetiredMask returns the mask of candidates withdrawn through Retire
// (nil when none were ever retired). The returned set must not be
// mutated.
func (e *Engine) RetiredMask() *bitset.Set { return e.idx.retiredMask }

// widenIndex resizes the compiled index to n candidates in place: row
// slices gain nil slots, existing bitsets grow (preserving pointer
// identity, so aliased masks widen for every holder).
func (e *Engine) widenIndex(n int) {
	idx := e.idx
	for len(idx.rows) < n {
		idx.rows = append(idx.rows, nil)
	}
	for _, r := range idx.rows {
		if r != nil {
			r.Grow(n)
		}
	}
	for li, layer := range idx.extra {
		for len(layer) < n {
			layer = append(layer, nil)
		}
		idx.extra[li] = layer
		for _, s := range layer {
			if s != nil {
				s.Grow(n)
			}
		}
	}
	if idx.retiredMask != nil {
		idx.retiredMask.Grow(n)
	}
}

// addPair records {a, b} in the shared conflict matrix.
func (e *Engine) addPair(a, b, n int) {
	if e.idx.rows[a] == nil {
		e.idx.rows[a] = bitset.New(n)
	}
	if e.idx.rows[b] == nil {
		e.idx.rows[b] = bitset.New(n)
	}
	e.idx.rows[a].Add(b)
	e.idx.rows[b].Add(a)
}

// addExtraPair records {a, b} in multiplicity layer l (meaning at least
// l+2 pairwise constraints declare the pair).
func (e *Engine) addExtraPair(l, a, b, n int) {
	for len(e.idx.extra) <= l {
		e.idx.extra = append(e.idx.extra, make([]*bitset.Set, n))
	}
	layer := e.idx.extra[l]
	for len(layer) < n {
		layer = append(layer, nil)
	}
	e.idx.extra[l] = layer
	if layer[a] == nil {
		layer[a] = bitset.New(n)
	}
	if layer[b] == nil {
		layer[b] = bitset.New(n)
	}
	layer[a].Add(b)
	layer[b].Add(a)
}

// reEmitGates refreshes every gated constraint's participation masks
// from a fresh compilation (cheap relative to the cycle re-enumeration
// that RebuildIndex already paid).
func (e *Engine) reEmitGates() {
	for gi := range e.idx.gates {
		g := &e.idx.gates[gi]
		comp := g.con.Compile()
		g.masks, g.min = comp.GateMasks, comp.GateMin
	}
}

// growPartition extends the memoized partition after Grow: the
// persistent union-find gains the new candidates, their conflict rows
// are unioned in, and the gate-mask pass is re-run (idempotent — and
// necessary, since a new candidate can close a cycle that links two
// previously separate components of OLD candidates). Conflict links only
// ever grow under Grow, so the incremental classes equal what a
// from-scratch computeComponents would produce.
func (e *Engine) growPartition(oldN int) {
	pc := e.parts
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.uf == nil {
		// Never computed, computed without a forest (a whole cache), or
		// computed before a Retire: drop it and recompute lazily.
		pc.p = nil
		return
	}
	n := e.net.NumCandidates()
	uf := pc.uf
	for i := len(uf.parent); i < n; i++ {
		uf.parent = append(uf.parent, int32(i))
		uf.rank = append(uf.rank, 0)
	}
	for c := oldN; c < n; c++ {
		if r := e.idx.rows[c]; r != nil {
			cc := c
			r.ForEach(func(d int) bool {
				uf.union(cc, d)
				return true
			})
		}
	}
	e.unionGateMasks(uf)
	pc.p = partitionFrom(uf, n)
}

// retirePartition re-partitions only the component candidate c belonged
// to: retiring can split a component, which a union-find cannot express,
// so the touched component's members (minus c) are re-clustered locally
// against the already-updated rows and gate masks while every other
// component is carried unchanged. The persistent forest is dropped — the
// next Grow recomputes the partition from scratch. A whole cache keeps
// its one component, the retiree included.
func (e *Engine) retirePartition(c int) {
	pc := e.parts
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.uf = nil
	if pc.p == nil || pc.whole {
		return
	}
	old := pc.p
	k := old.compOf[c]
	members := old.comps[k]
	if len(members) == 1 {
		return // already a singleton; the partition is unchanged
	}
	pos := make(map[int]int, len(members))
	for i, m := range members {
		pos[m] = i
	}
	luf := newUnionFind(len(members))
	link := func(a int, s *bitset.Set) {
		ai := pos[a]
		s.ForEach(func(d int) bool {
			if d == c {
				return true
			}
			if j, ok := pos[d]; ok {
				luf.union(ai, j)
			}
			return true
		})
	}
	for _, a := range members {
		if a == c {
			continue
		}
		if r := e.idx.rows[a]; r != nil {
			link(a, r)
		}
	}
	// Gate masks shrink under Retire (a retired candidate cannot appear
	// on any violating chain), so every surviving mask member of a
	// touched candidate still lies inside the old component.
	for gi := range e.idx.gates {
		g := &e.idx.gates[gi]
		for _, a := range members {
			if a == c {
				continue
			}
			if m := g.masks[a]; m != nil {
				link(a, m)
			}
		}
	}
	groups := make(map[int][]int)
	for _, a := range members {
		if a == c {
			continue
		}
		r := luf.find(pos[a])
		groups[r] = append(groups[r], a) // members ascending ⇒ groups ascending
	}
	newComps := make([][]int, 0, len(old.comps)+len(groups))
	for i, comp := range old.comps {
		if i != k {
			newComps = append(newComps, comp)
		}
	}
	//lint:sorted groups are sorted by leader immediately below, before any consumer sees them
	for _, grp := range groups {
		newComps = append(newComps, grp)
	}
	newComps = append(newComps, []int{c}) // the retiree becomes a singleton
	sort.Slice(newComps, func(i, j int) bool { return newComps[i][0] < newComps[j][0] })
	compOf := make([]int, len(old.compOf))
	for ki, ms := range newComps {
		for _, a := range ms {
			compOf[a] = ki
		}
	}
	pc.p = &Partition{comps: newComps, compOf: compOf}
}
