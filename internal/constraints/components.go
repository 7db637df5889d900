package constraints

import (
	"sort"

	"schemanet/internal/bitset"
)

// Partition groups the candidate correspondences of one network into
// constraint-connected components: two candidates land in the same
// component iff some chain of (potential) violations links them. Every
// violation of Γ lies entirely inside one component, so probabilities,
// entropies, and matching-instance maximality factorize across
// components — the foundation of the component-decomposed PMN (see
// DESIGN.md, "Component decomposition").
//
// A Partition is immutable after construction and safe to share across
// goroutines.
type Partition struct {
	comps  [][]int // members per component, ascending; comps ordered by smallest member
	compOf []int   // candidate -> component index
}

// NumComponents returns the number of components.
func (p *Partition) NumComponents() int { return len(p.comps) }

// NumCandidates returns the size of the partitioned universe.
func (p *Partition) NumCandidates() int { return len(p.compOf) }

// Members returns component k's candidates in ascending order. The
// returned slice must not be mutated.
func (p *Partition) Members(k int) []int { return p.comps[k] }

// ComponentOf returns the component index of candidate c.
func (p *Partition) ComponentOf(c int) int { return p.compOf[c] }

// Trivial reports whether the partition is one single component (no
// decomposition is possible, or the engine is a Whole fork).
func (p *Partition) Trivial() bool { return len(p.comps) <= 1 }

// singlePartition is the trivial one-component partition.
func singlePartition(n int) *Partition {
	members := make([]int, n)
	compOf := make([]int, n)
	for c := range members {
		members[c] = c
	}
	return &Partition{comps: [][]int{members}, compOf: compOf}
}

// unionFind is a standard disjoint-set forest with union by rank and
// path halving.
type unionFind struct {
	parent []int32
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for int(uf.parent[x]) != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = int(uf.parent[x])
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = int32(ra)
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}

// Components partitions the candidates by constraint connectivity,
// derived from the compiled conflict index: the conflict-matrix rows of
// the pairwise constraints are unioned with the participation masks of
// the gated constraints (for the cycle constraint, every candidate that
// can complete a violating chain through c is in c's mask — see
// Cycle.Compile). The masks over-approximate violation participation,
// so the partition is conservative: components may be coarser than the
// true violation-connectivity classes, never finer, which is exactly
// the safety direction the decomposed PMN needs.
//
// The gate masks are the whole of the coarsening. A pairwise conflict
// is itself a violation, so a conflict-matrix link never joins two
// violation classes; a cycle mask holds every candidate on a schema
// pair of some cycle through c, whether or not a violating chain
// exists. On dense-256 (seeds 1–3) the compiled partition has 1, 1 and
// 16 components against 26, 28 and 31 zero-feedback violation classes
// (LivePieces), and every one of the 1796–2926 compiled links that
// join two classes comes from a gate mask, none from a conflict row
// (TestPiecesRefineComponents).
//
// A Whole fork returns the trivial one-component partition instead.
//
// The partition is computed once per engine family (forks share the
// cache) from the immutable index, and the same value is returned on
// every call, so Components doubles as the component-index lookup of
// the concurrent serving layer: ComponentOf on the returned partition
// is a plain slice read, safe from any goroutine.
func (e *Engine) Components() *Partition {
	pc := e.parts
	pc.once.Do(func() { pc.p = e.computeComponents(pc.whole) })
	return pc.p
}

func (e *Engine) computeComponents(whole bool) *Partition {
	n := e.net.NumCandidates()
	if whole {
		return singlePartition(n)
	}
	uf := newUnionFind(n)
	for c, r := range e.idx.rows {
		if r == nil {
			continue
		}
		// Rows are symmetric: visiting each conflict from its larger
		// end covers every link once.
		cc := c
		r.ForEach(func(d int) bool {
			if d > cc {
				return false
			}
			uf.union(cc, d)
			return true
		})
	}
	e.unionGateMasks(uf)
	return partitionFrom(uf, n)
}

// unionGateMasks folds the gated constraints' participation masks into
// the union-find.
func (e *Engine) unionGateMasks(uf *unionFind) {
	for gi := range e.idx.gates {
		g := &e.idx.gates[gi]
		// Gate masks are shared between the candidates of one schema pair
		// (see Cycle.Compile); visiting each distinct mask once keeps the
		// pass linear in the mask material instead of quadratic.
		visited := make(map[*bitset.Set]struct{})
		for c, m := range g.masks {
			if m == nil {
				continue
			}
			if _, ok := visited[m]; !ok {
				visited[m] = struct{}{}
				first := -1
				m.ForEach(func(d int) bool {
					if first < 0 {
						first = d
					} else {
						uf.union(first, d)
					}
					return true
				})
			}
			// Link c itself to its mask's class (one representative
			// suffices — the mask members are already united).
			cc := c
			m.ForEach(func(d int) bool {
				uf.union(cc, d)
				return false
			})
		}
	}
}

// partitionFrom materializes the union-find classes, ordering
// components by their smallest member and members ascending.
func partitionFrom(uf *unionFind, n int) *Partition {
	rootIdx := make(map[int]int, 8)
	var comps [][]int
	compOf := make([]int, n)
	for c := 0; c < n; c++ {
		r := uf.find(c)
		k, ok := rootIdx[r]
		if !ok {
			k = len(comps)
			rootIdx[r] = k
			comps = append(comps, nil)
		}
		comps[k] = append(comps[k], c)
		compOf[c] = k
	}
	// Candidates are visited in ascending order, so members are already
	// sorted and components are ordered by smallest member; the sort is a
	// cheap invariant guard.
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	for k, members := range comps {
		for _, c := range members {
			compOf[c] = k
		}
	}
	return &Partition{comps: comps, compOf: compOf}
}
