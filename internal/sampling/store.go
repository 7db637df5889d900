package sampling

import "schemanet/internal/bitset"

// Store is the sample set Ω* with view maintenance (§III-B). It holds
// *distinct* matching instances: Equation 1 defines p_c over the set of
// matching instances, so the estimate (Equation 2) is the fraction of
// distinct sampled instances containing c — uniform over what sampling
// has discovered. Coverage, not multiplicity, determines the estimate's
// quality, which is why the sampler mixes restarts into its walk.
//
// Alongside the row-major instance list the store maintains a
// *transposed, columnar* bit matrix: cols[j] is a word slice whose bit i
// is set iff instances[i] contains the j-th tracked candidate.
// Conditional co-occurrence counts — the inner loop of the
// information-gain ranking (Equations 4–5) — then collapse to word-wise
// AND + popcount between two columns, O(S/64) per candidate pair (see
// DESIGN.md, "Columnar sample store").
//
// A store tracks either the whole candidate universe (NewStore) or one
// constraint-connected component of it (NewComponentStore). A component
// store holds the component's matching instances — maximal consistent
// subsets of the component's candidates — and materializes columns and
// counts only for its members, so the per-component slabs of a
// decomposed PMN together cost what the one monolithic slab did (see
// DESIGN.md, "Component decomposition"). Instances added to a component
// store must be subsets of the member set.
type Store struct {
	numCands   int
	nmin       int
	members    []int       // tracked candidates, ascending; nil = all
	local      []int32     // global -> column index; nil = identity. Shared, read-only.
	memberMask *bitset.Set // members as a mask; nil = all
	m          int         // number of tracked candidates
	instances  []*bitset.Set
	fps        []uint64         // fps[i] = instances[i].Fingerprint()
	index      map[uint64][]int // fingerprint -> instance rows (collision bucket)
	counts     []int            // counts[j] = popcount(cols[j]), column-indexed
	cols       [][]uint64       // candidate-major, sample-minor bit matrix, column-indexed
	slab       []uint64         // backing array of cols: column j is slab[j*colCap:]
	colCap     int              // words of slab capacity per column
	colWords   int              // words per column in use, ceil(len(instances)/64)
	complete   bool
	proj       *bitset.Set // AddProjection scratch
}

// NewStore returns an empty store tracking all numCands candidates with
// view-maintenance threshold nmin.
func NewStore(numCands, nmin int) *Store {
	return &Store{
		numCands: numCands,
		nmin:     nmin,
		m:        numCands,
		index:    make(map[uint64][]int),
		counts:   make([]int, numCands),
		cols:     make([][]uint64, numCands),
	}
}

// NewComponentStore returns an empty store tracking only the given
// members (one constraint-connected component, ascending candidate
// indices). local maps every member to its column index (local[c] for
// c ∈ members); it is typically shared across all component stores of
// one PMN and must not be mutated. Instances added to the store must be
// subsets of the member set.
func NewComponentStore(numCands, nmin int, members []int, local []int32) *Store {
	mask := bitset.FromIndices(numCands, members...)
	return &Store{
		numCands:   numCands,
		nmin:       nmin,
		members:    members,
		local:      local,
		memberMask: mask,
		m:          len(members),
		index:      make(map[uint64][]int),
		counts:     make([]int, len(members)),
		cols:       make([][]uint64, len(members)),
	}
}

// GrowUniverse widens the candidate universe to n in place after the
// network gained candidates, updating the member mask, every held
// instance, and the shared global→column map. The tracked member set is
// unchanged — a store whose component membership changed must be
// rebuilt, not grown — so columns and counts stay valid as-is; only the
// fingerprint index needs recomputing, and only when the word width of
// the instance bitsets actually changed.
func (st *Store) GrowUniverse(n int, local []int32) {
	if n < st.numCands {
		panic("sampling: GrowUniverse shrinks the candidate universe")
	}
	oldWords := (st.numCands + 63) / 64
	st.numCands = n
	st.local = local
	if st.members == nil {
		// A full-universe store cannot grow: its columns are sized to
		// the universe. Callers decompose before growing.
		if n > st.m {
			panic("sampling: GrowUniverse on a full-universe store")
		}
		return
	}
	st.memberMask.Grow(n)
	st.proj = nil
	for _, inst := range st.instances {
		inst.Grow(n)
	}
	if (n+63)/64 != oldWords {
		clear(st.index)
		for i, inst := range st.instances {
			fp := inst.Fingerprint()
			st.fps[i] = fp
			st.index[fp] = append(st.index[fp], i)
		}
	}
}

// Restrict narrows a component store to a subset of its tracked
// members in place: every instance is projected onto the subset
// (projections that coincide are merged, the first kept), columns and
// counts are rebuilt under the new member order, and completeness is
// kept — the projections of a complete instance list are the complete
// list of a factor of its space. local maps every new member to its
// column, as in NewComponentStore.
func (st *Store) Restrict(members []int, local []int32) {
	if st.members == nil {
		panic("sampling: Restrict on a full-universe store")
	}
	mask := bitset.FromIndices(st.numCands, members...)
	st.members, st.local, st.memberMask, st.m = members, local, mask, len(members)
	kept := st.instances[:0]
	fps := st.fps[:0]
	clear(st.index)
	for _, inst := range st.instances {
		inst.IntersectWith(mask)
		fp := inst.Fingerprint()
		dup := false
		for _, i := range st.index[fp] {
			if kept[i].Equal(inst) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		st.index[fp] = append(st.index[fp], len(kept))
		kept = append(kept, inst)
		fps = append(fps, fp)
	}
	for i := len(kept); i < len(st.instances); i++ {
		st.instances[i] = nil
	}
	st.instances, st.fps = kept, fps
	st.counts, st.cols = st.counts[:st.m], st.cols[:st.m]
	st.rebuildColumns()
}

// columnOf returns the column index of global candidate c. Callers must
// pass a tracked candidate.
func (st *Store) columnOf(c int) int {
	if st.local == nil {
		return c
	}
	return int(st.local[c])
}

// mustTrack panics when c is not tracked by this store: the shared
// global→column map is only meaningful for this store's members, so an
// untracked index would silently read another component's column.
func (st *Store) mustTrack(c int) {
	if !st.Tracks(c) {
		panic("sampling: candidate not tracked by this component store")
	}
}

// TrackedCount returns the number of tracked candidates: NumCandidates
// for a full store, the component size for a component store.
func (st *Store) TrackedCount() int { return st.m }

// TrackedMembers returns the tracked candidates in ascending order, or
// nil when the store tracks the whole universe. The slice must not be
// mutated.
func (st *Store) TrackedMembers() []int { return st.members }

// GlobalID returns the global candidate index of column j.
func (st *Store) GlobalID(j int) int {
	if st.members == nil {
		return j
	}
	return st.members[j]
}

// Tracks reports whether candidate c is tracked by this store.
func (st *Store) Tracks(c int) bool {
	return st.memberMask == nil || st.memberMask.Has(c)
}

// Add inserts a copy of inst unless an identical instance is already
// present; it reports whether the instance was new. Dedup uses a 64-bit
// fingerprint index with an Equal check on collision, avoiding the
// string-key allocation a map[string]int would cost per emission.
func (st *Store) Add(inst *bitset.Set) bool {
	if st.memberMask != nil && !st.memberMask.ContainsAll(inst) {
		panic("sampling: instance outside the component store's member set")
	}
	fp := inst.Fingerprint()
	for _, i := range st.index[fp] {
		if st.instances[i].Equal(inst) {
			return false
		}
	}
	cp := inst.Clone()
	row := len(st.instances)
	st.index[fp] = append(st.index[fp], row)
	st.instances = append(st.instances, cp)
	st.fps = append(st.fps, fp)
	st.ensureColWords(row>>6 + 1)
	w, b := row>>6, uint(row&63)
	cp.ForEach(func(c int) bool {
		j := st.columnOf(c)
		st.counts[j]++
		st.cols[j][w] |= 1 << b
		return true
	})
	return true
}

// AddProjection adds inst ∩ members — the instance's projection onto
// the tracked candidates — with Add's dedup, and reports whether it was
// new. A full-universe store adds inst itself.
func (st *Store) AddProjection(inst *bitset.Set) bool {
	if st.memberMask == nil || st.memberMask.ContainsAll(inst) {
		return st.Add(inst)
	}
	if st.proj == nil {
		st.proj = bitset.New(st.numCands)
	}
	st.proj.CopyFrom(inst)
	st.proj.IntersectWith(st.memberMask)
	return st.Add(st.proj)
}

// Size returns |Ω*|, the number of distinct instances held.
func (st *Store) Size() int { return len(st.instances) }

// DistinctSize is an alias of Size (the store is a set).
func (st *Store) DistinctSize() int { return len(st.instances) }

// NumCandidates returns the candidate-universe size.
func (st *Store) NumCandidates() int { return st.numCands }

// NMin returns the view-maintenance threshold.
func (st *Store) NMin() int { return st.nmin }

// LastInstance returns the most recently added instance, or nil when the
// store is empty. The sampler uses it to continue walks across
// incremental refills. The returned set must not be mutated.
func (st *Store) LastInstance() *bitset.Set {
	if len(st.instances) == 0 {
		return nil
	}
	return st.instances[len(st.instances)-1]
}

// Instance returns the i-th instance. The returned set must not be
// mutated.
func (st *Store) Instance(i int) *bitset.Set { return st.instances[i] }

// Complete reports whether the store is known to hold every matching
// instance (Ω* = Ω); probabilities are then exact per Equation 1.
func (st *Store) Complete() bool { return st.complete }

// MarkComplete records that the store holds all matching instances.
func (st *Store) MarkComplete() { st.complete = true }

// ClearComplete revokes completeness (needed after a disapproval, which
// can surface maximal instances that no previous sample subsumed; see
// DESIGN.md).
func (st *Store) ClearComplete() { st.complete = false }

// NeedsResample reports whether the store has fallen below nmin and is
// not known to be complete.
func (st *Store) NeedsResample() bool {
	return !st.complete && len(st.instances) < st.nmin
}

// ApplyAssertion performs the view-maintenance update of §III-B:
// approving c keeps only instances containing c; disapproving keeps only
// instances without c. One compaction pass rebuilds the fingerprint
// index, the columnar matrix, and the per-candidate counts.
//
// Completeness is revoked on any disapproval (new maximal instances can
// surface, see DESIGN.md) and also whenever the kept instance set comes
// out empty: completeness recorded by the two-under-n_min sampling
// heuristic is a *conclusion*, not a proof, and an assertion that wipes
// the store is direct evidence the missing instances were never
// sampled. Keeping the complete flag on an empty store would silently
// dead-end the session — probabilities all 0, entropy 0, NeedsResample
// false — with no way back (the regression this guards is a completed
// store emptied by an approval).
func (st *Store) ApplyAssertion(c int, approved bool) {
	st.mustTrack(c)
	kept := st.instances[:0]
	fps := st.fps[:0]
	clear(st.index)
	for i, inst := range st.instances {
		if inst.Has(c) == approved {
			fp := st.fps[i]
			st.index[fp] = append(st.index[fp], len(kept))
			kept = append(kept, inst)
			fps = append(fps, fp)
		}
	}
	for i := len(kept); i < len(st.instances); i++ {
		st.instances[i] = nil
	}
	st.instances = kept
	st.fps = fps
	st.rebuildColumns()
	if !approved || len(kept) == 0 {
		st.ClearComplete()
	}
}

// ApplyAssertionExact performs *exact* view maintenance over a complete
// store (Ω* = Ω): the instance list is updated through the shared
// FilterInstances kernel, so a disapproval also surfaces the previously
// non-maximal sets that excluding c makes maximal — each instance
// containing c is stripped of it and kept when isMaximal (typically
// Engine.Maximal against the updated exclusion set) approves the
// remainder. Unlike ApplyAssertion, completeness is *preserved*: if the
// store held all of Ω before, it holds all of Ω′ after, for either
// assertion direction (see DESIGN.md, "Hybrid inference"). isMaximal is
// only consulted for disapprovals.
func (st *Store) ApplyAssertionExact(c int, approved bool, isMaximal func(*bitset.Set) bool) {
	st.mustTrack(c)
	st.instances = FilterInstances(st.instances, c, approved, isMaximal)
	// Stripping rewrites instance bits, so fingerprints are recomputed
	// rather than carried over as the plain compaction does.
	st.fps = st.fps[:0]
	clear(st.index)
	for i, inst := range st.instances {
		fp := inst.Fingerprint()
		st.fps = append(st.fps, fp)
		st.index[fp] = append(st.index[fp], i)
	}
	st.rebuildColumns()
}

// ensureColWords grows every column to the given word count. All
// columns share one backing slab (column j at stride colCap), so a
// capacity growth is a single allocation plus one copy per column, and
// adjacent columns stay contiguous for the ranking scan.
func (st *Store) ensureColWords(words int) {
	if words <= st.colWords {
		return
	}
	if words > st.colCap {
		newCap := st.colCap * 2
		if newCap < words {
			newCap = words
		}
		if newCap < 4 {
			newCap = 4
		}
		slab := make([]uint64, st.m*newCap)
		for j, col := range st.cols {
			copy(slab[j*newCap:], col)
		}
		st.slab = slab
		st.colCap = newCap
	}
	st.colWords = words
	for j := range st.cols {
		st.cols[j] = st.slab[j*st.colCap : j*st.colCap+words]
	}
}

// rebuildColumns recomputes the columnar matrix and counts from the
// (compacted) instance list. Sample rows are renumbered densely, so
// every column is rewritten.
func (st *Store) rebuildColumns() {
	words := (len(st.instances) + 63) / 64
	for i := range st.slab {
		st.slab[i] = 0
	}
	st.colWords = 0
	st.ensureColWords(words)
	for j := range st.cols {
		st.cols[j] = st.slab[j*st.colCap : j*st.colCap+words]
		st.counts[j] = 0
	}
	for i, inst := range st.instances {
		w, b := i>>6, uint(i&63)
		inst.ForEach(func(d int) bool {
			j := st.columnOf(d)
			st.counts[j]++
			st.cols[j][w] |= 1 << b
			return true
		})
	}
}

// Probability returns the estimated probability of candidate c
// (Equation 2): the fraction of held instances containing c. It returns
// 0 when the store is empty or does not track c.
func (st *Store) Probability(c int) float64 {
	if len(st.instances) == 0 || !st.Tracks(c) {
		return 0
	}
	return float64(st.counts[st.columnOf(c)]) / float64(len(st.instances))
}

// Probabilities returns the probability estimates for all candidates
// of the universe; untracked candidates read 0.
func (st *Store) Probabilities() []float64 {
	out := make([]float64, st.numCands)
	st.ProbabilitiesInto(out)
	return out
}

// ProbabilitiesInto writes the probability estimates of the tracked
// candidates into out (len ≥ NumCandidates) at their global positions;
// untracked positions are left untouched. This is how a decomposed PMN
// refreshes only the touched component's slice of P.
func (st *Store) ProbabilitiesInto(out []float64) {
	n := len(st.instances)
	if st.members == nil {
		for c := range st.counts {
			if n == 0 {
				out[c] = 0
			} else {
				out[c] = float64(st.counts[c]) / float64(n)
			}
		}
		return
	}
	for j, c := range st.members {
		if n == 0 {
			out[c] = 0
		} else {
			out[c] = float64(st.counts[j]) / float64(n)
		}
	}
}

// MarginalsInto writes the per-column marginal estimates —
// counts[j]/Size(), column-indexed (see GlobalID) — into out, which
// must have length TrackedCount. An empty store writes zeros. Unlike
// ProbabilitiesInto this is dense in *column* space, so two snapshots
// taken around a sampling chunk are directly comparable; the adaptive
// refill loop uses consecutive vectors to test marginal convergence.
func (st *Store) MarginalsInto(out []float64) {
	n := len(st.instances)
	for j := 0; j < st.m; j++ {
		if n == 0 {
			out[j] = 0
		} else {
			out[j] = float64(st.counts[j]) / float64(n)
		}
	}
}

// SmoothedProbabilities returns add-half (Krichevsky–Trofimov) smoothed
// estimates, (count + ½) / (size + 1), for the whole universe
// (untracked candidates smooth from count 0). Finite sampling saturates
// raw frequencies at exactly 0 or 1 even when the true probability is
// not; divergence measurements against exact distributions (Figure 7)
// use the smoothed form so a single saturated estimate cannot dominate.
func (st *Store) SmoothedProbabilities() []float64 {
	out := make([]float64, st.numCands)
	n := float64(len(st.instances))
	for c := range out {
		cnt := 0.0
		if st.Tracks(c) {
			cnt = float64(st.counts[st.columnOf(c)])
		}
		out[c] = (cnt + 0.5) / (n + 1)
	}
	return out
}

// CoCounts returns, for every tracked candidate (column-indexed; see
// GlobalID), how many instances contain both c and that candidate
// (with[j]) and how many contain it but not c (without[j]), together
// with the sizes of the two partitions. It is the batched, columnar
// replacement for calling CondCounts twice: one word-wise AND+popcount
// per candidate pair, with the without-side derived as counts[j] −
// with[j].
func (st *Store) CoCounts(c int) (with, without []int, nWith, nWithout int) {
	with = make([]int, st.m)
	without = make([]int, st.m)
	nWith, nWithout = st.CoCountsInto(c, with, without)
	return with, without, nWith, nWithout
}

// CoCountsInto is CoCounts writing into caller-provided slices (len ≥
// TrackedCount each), so ranking loops can reuse scratch buffers.
// c must be tracked by this store.
func (st *Store) CoCountsInto(c int, with, without []int) (nWith, nWithout int) {
	st.mustTrack(c)
	jc := st.columnOf(c)
	colC := st.cols[jc]
	for j := 0; j < st.m; j++ {
		w := bitset.AndCountWords(st.cols[j], colC)
		with[j] = w
		without[j] = st.counts[j] - w
	}
	return st.counts[jc], len(st.instances) - st.counts[jc]
}

// CoCountsSubsetInto is CoCountsInto restricted to a subset of tracked
// columns: with[i] and without[i] receive the partition counts of
// column subset[i]. The lazy ranking pass uses it to touch only the
// uncertain, unasserted members of a component — every excluded column
// would contribute an exactly-zero entropy term — so one candidate
// evaluation costs O(|subset|·words) instead of O(m·words). The counts
// are identical to the corresponding entries of CoCountsInto. c must be
// tracked; subset entries must be valid column indices.
func (st *Store) CoCountsSubsetInto(c int, subset []int, with, without []int) (nWith, nWithout int) {
	st.mustTrack(c)
	jc := st.columnOf(c)
	colC := st.cols[jc]
	for i, j := range subset {
		w := bitset.AndCountWords(st.cols[j], colC)
		with[i] = w
		without[i] = st.counts[j] - w
	}
	return st.counts[jc], len(st.instances) - st.counts[jc]
}

// CoCountsBlockInto computes CoCountsSubsetInto for a block of
// candidates in one sweep over the subset columns: each column's bit
// vector is loaded once and intersected against every candidate in the
// block, instead of once per candidate — the memory-locality win that
// makes a batched lazy evaluation cheaper than popping candidates one
// at a time when the columnar slab outgrows the L1 cache. with[b][i] /
// without[b][i] receive the counts of cands[b] against column
// subset[i]; nWith[b]/nWithout[b] the candidate's own partition sizes.
// cols is caller scratch (len ≥ len(cands)) for the candidates' column
// vectors. The counts are bit-identical to len(cands) separate
// CoCountsSubsetInto calls.
func (st *Store) CoCountsBlockInto(cands []int, subset []int, cols [][]uint64, with, without [][]int, nWith, nWithout []int) {
	n := len(st.instances)
	for b, c := range cands {
		st.mustTrack(c)
		jc := st.columnOf(c)
		cols[b] = st.cols[jc]
		nWith[b] = st.counts[jc]
		nWithout[b] = n - st.counts[jc]
	}
	for i, j := range subset {
		colJ := st.cols[j]
		cnt := st.counts[j]
		for b := range cands {
			w := bitset.AndCountWords(colJ, cols[b])
			with[b][i] = w
			without[b][i] = cnt - w
		}
	}
}

// CondCounts returns, for every tracked candidate (column-indexed), the
// number of instances that contain both c and that candidate (when
// withC is true) or it but not c (when withC is false), together with
// the number of instances in that partition. It is the naive row-major
// scan kept as the reference implementation for the columnar CoCounts;
// property tests cross-check the two. Hot paths should use
// CoCounts/CoCountsInto. c must be tracked by this store.
func (st *Store) CondCounts(c int, withC bool) (counts []int, total int) {
	st.mustTrack(c)
	counts = make([]int, st.m)
	for _, inst := range st.instances {
		if inst.Has(c) != withC {
			continue
		}
		total++
		inst.ForEach(func(d int) bool {
			counts[st.columnOf(d)]++
			return true
		})
	}
	return counts, total
}

// ForEachInstance calls fn for every held instance; the sets must not be
// mutated.
func (st *Store) ForEachInstance(fn func(inst *bitset.Set) bool) {
	for _, inst := range st.instances {
		if !fn(inst) {
			return
		}
	}
}
