package constraints

import (
	"math/rand"
	"sync"

	"schemanet/internal/bitset"
	"schemanet/internal/schema"
)

// Engine evaluates a constraint set Γ over matching instances of one
// network and provides the repair and maximization primitives shared by
// the sampler (Algorithm 3) and the instantiation heuristic
// (Algorithm 2).
//
// NewEngine compiles Γ into a conflict index (see DESIGN.md, "Compiled
// conflict index"): the pairwise constraints become one shared conflict
// matrix and the non-pairwise ones get word-wise early-out gates, so the
// per-walk-step primitives run as word operations over masks instead of
// per-candidate interface dispatch. The differential tests hold it to a
// naive evaluator over the Constraint interface, kept in test code.
//
// The compiled index describes the network as it was at NewEngine.
// After the network changes, compile a new engine for it and hand it to
// the forks that should follow (Adopt).
//
// Concurrency: the query methods (HasConflict, ConflictsWith,
// Violations, Consistent, CanAdd, Maximal, MaximalWithin,
// ViolationCount, Components) are safe for concurrent use after
// construction — the network, the constraint set, and the compiled
// conflict index are all immutable.
// Maximize, Resaturate and Repair reuse engine-owned scratch and must
// be externally serialized; callers that need those primitives from
// several goroutines give each goroutine its own Fork, which shares the
// immutable compiled material and owns only the scratch.
type Engine struct {
	net   *schema.Network
	cons  []Constraint
	idx   *conflictIndex
	parts *partitionCache // lazily computed partition, shared across forks

	// Scratch reused by the mutating primitives; per fork.
	order   []int          // Maximize: visit order; Resaturate: addable list
	blocked *bitset.Set    // Maximize: inst ∪ excluded ∪ conflict rows of inst; Resaturate: touched set
	rep     *repairScratch // Repair: victim accounting, bound once per fork
}

// partitionCache memoizes Engine.Components per engine family: the
// partition depends only on the compiled index, which is immutable, so
// forks share one cache and it is computed at most once.
type partitionCache struct {
	once sync.Once
	p    *Partition
	// whole pins p to the trivial one-component partition (see
	// Engine.Whole).
	whole bool
}

// NewEngine binds the constraints to the network and compiles them. The
// standard paper configuration is NewEngine(net, NewOneToOne(net),
// NewCycle(net, DefaultMaxCycleLen)); see Default. It panics, naming the
// constraint, when a constraint has a shape the index cannot run (see
// compileAll).
func NewEngine(net *schema.Network, cons ...Constraint) *Engine {
	return &Engine{net: net, cons: cons, idx: compileAll(net, cons), parts: &partitionCache{}}
}

// Fork returns an engine sharing this engine's network, constraint set,
// compiled conflict index, and partition cache, with fresh scratch
// buffers. The shared material is immutable, so distinct forks may run
// the mutating primitives (Maximize, Resaturate, Repair) concurrently —
// this is how a decomposed PMN gives every component its own sampler
// without paying a recompilation per component.
func (e *Engine) Fork() *Engine {
	return &Engine{net: e.net, cons: e.cons, idx: e.idx, parts: e.parts}
}

// Adopt re-points e at src's network, constraint set, compiled conflict
// index and partition cache, keeping e's own scratch buffers: after the
// call e is a fork of src. A session whose network changed adopts a
// fresh compilation of it on every fork it holds, so samplers and
// stores bound to those forks follow without being rebuilt. src may
// describe a grown universe: every scratch buffer is resized to the
// candidate count on its next use. A Whole fork stays whole: it takes a
// whole partition cache of its own unless src's is one. Adopt must be
// serialized against all use of e.
func (e *Engine) Adopt(src *Engine) {
	parts := src.parts
	if e.parts.whole && !parts.whole {
		parts = &partitionCache{whole: true}
	}
	e.net, e.cons, e.idx, e.parts = src.net, src.cons, src.idx, parts
}

// Whole returns a fork whose partition is always the trivial
// one-component partition: a PMN built on it keeps one global sample
// space. This is the monolithic reference the component decomposition
// is tested against. The fork gets its own partition cache (its own
// forks share it); everything else is shared as in Fork.
func (e *Engine) Whole() *Engine {
	f := e.Fork()
	f.parts = &partitionCache{whole: true}
	return f
}

// Default returns the compiled engine with the paper's constraint set
// Γ = {one-to-one, cycle}.
func Default(net *schema.Network) *Engine {
	return NewEngine(net, NewOneToOne(net), NewCycle(net, DefaultMaxCycleLen))
}

// Network returns the bound network.
func (e *Engine) Network() *schema.Network { return e.net }

// Constraints returns the constraint set Γ.
func (e *Engine) Constraints() []Constraint { return e.cons }

// NewInstance returns an empty instance sized for the network's
// candidate set.
func (e *Engine) NewInstance() *bitset.Set {
	return bitset.New(e.net.NumCandidates())
}

// HasConflict reports whether candidate c, treated as selected, would
// participate in any violation given the other members of inst.
func (e *Engine) HasConflict(inst *bitset.Set, c int) bool {
	if r := e.idx.rows[c]; r != nil && inst.AndCount(r) > 0 {
		return true
	}
	return e.idx.slowConflict(inst, c)
}

// ConflictsWith returns all violations candidate c would participate in.
func (e *Engine) ConflictsWith(inst *bitset.Set, c int) []Violation {
	var out []Violation
	for _, con := range e.cons {
		out = append(out, con.ConflictsWith(inst, c)...)
	}
	return out
}

// Violations returns all distinct violations among the members of inst.
func (e *Engine) Violations(inst *bitset.Set) []Violation {
	var out []Violation
	for _, con := range e.cons {
		out = append(out, con.Violations(inst)...)
	}
	return out
}

// Consistent reports I |= Γ.
func (e *Engine) Consistent(inst *bitset.Set) bool {
	ok := true
	inst.ForEach(func(c int) bool {
		if e.HasConflict(inst, c) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// CanAdd reports whether inst ∪ {c} remains consistent (assuming inst is
// consistent). This is the maximality test of Definition 1.
func (e *Engine) CanAdd(inst *bitset.Set, c int) bool {
	return !e.HasConflict(inst, c)
}

// Maximal reports whether inst is maximal w.r.t. Γ and the excluded set
// (typically F−): no candidate outside inst and excluded can be added
// without violating a constraint. Retired candidates are never
// addable, so they cannot disqualify maximality.
func (e *Engine) Maximal(inst, excluded *bitset.Set) bool {
	retired := e.idx.retiredMask
	for c := 0; c < e.net.NumCandidates(); c++ {
		if inst.Has(c) || (excluded != nil && excluded.Has(c)) {
			continue
		}
		if retired != nil && retired.Has(c) {
			continue
		}
		if e.CanAdd(inst, c) {
			return false
		}
	}
	return true
}

// MaximalWithin is Maximal restricted to the given candidate subset
// (typically one constraint-connected component's members): only
// members outside inst and excluded are probed, so the check costs
// O(|members|) HasConflict calls instead of a universe scan. For an
// instance of the member sub-universe — inst ⊆ members, and constraints
// never couple members to non-members — the answer equals Maximal with
// excluded ∪ ¬members.
func (e *Engine) MaximalWithin(inst, excluded *bitset.Set, members []int) bool {
	retired := e.idx.retiredMask
	for _, c := range members {
		if inst.Has(c) || (excluded != nil && excluded.Has(c)) {
			continue
		}
		if retired != nil && retired.Has(c) {
			continue
		}
		if e.CanAdd(inst, c) {
			return false
		}
	}
	return true
}

// visitOrder fills the engine's order scratch with 0..n−1, shuffled when
// rng is non-nil. Hoisting the slice out of Maximize matters because the
// sampler calls Maximize on every walk step.
func (e *Engine) visitOrder(rng *rand.Rand) []int {
	n := e.net.NumCandidates()
	if cap(e.order) < n {
		e.order = make([]int, n)
	}
	order := e.order[:n]
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return order
}

// memberOrder is visitOrder over an explicit candidate subset — the
// component-restricted walk visits (and shuffles) only the component's
// members, keeping the saturation pass O(component) instead of paying
// an O(|C|) shuffle per walk step.
func (e *Engine) memberOrder(members []int, rng *rand.Rand) []int {
	m := len(members)
	if cap(e.order) < m {
		e.order = make([]int, m)
	}
	order := e.order[:m]
	copy(order, members)
	if rng != nil {
		rng.Shuffle(m, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return order
}

// Maximize greedily saturates inst: candidates outside inst and excluded
// are visited in random order (deterministic ascending order when rng is
// nil) and added whenever consistent. Since the constraints are
// anti-monotone, one pass yields a maximal instance.
//
// The pass maintains an incremental blocked mask — inst ∪ excluded ∪
// the conflict rows of every member — so the pairwise admissibility test
// is one bit probe and adding c is one word-wise OR of its conflict row;
// only gate-passing candidates reach a constraint's own check.
func (e *Engine) Maximize(inst, excluded *bitset.Set, rng *rand.Rand) {
	e.maximizeOrder(inst, excluded, e.visitOrder(rng))
}

// MaximizeWithin is Maximize restricted to the given candidate subset
// (typically one constraint-connected component): only members are
// visited — in random order when rng is non-nil — and only the member
// shuffle is paid. A nil members slice means no restriction (plain
// Maximize), so restricted call sites need no branching. Callers
// remain responsible for the excluded set; passing excluded ⊇ ¬members
// makes the result a maximal instance of the member sub-universe.
func (e *Engine) MaximizeWithin(inst, excluded *bitset.Set, members []int, rng *rand.Rand) {
	if members == nil {
		e.maximizeOrder(inst, excluded, e.visitOrder(rng))
		return
	}
	e.maximizeOrder(inst, excluded, e.memberOrder(members, rng))
}

func (e *Engine) maximizeOrder(inst, excluded *bitset.Set, order []int) {
	n := e.net.NumCandidates()
	if e.blocked == nil || e.blocked.Len() != n {
		e.blocked = bitset.New(n)
	}
	blocked := e.blocked
	blocked.CopyFrom(inst)
	if excluded != nil {
		blocked.UnionWith(excluded)
	}
	if e.idx.retiredMask != nil {
		blocked.UnionWith(e.idx.retiredMask)
	}
	inst.ForEach(func(c int) bool {
		if r := e.idx.rows[c]; r != nil {
			blocked.UnionWith(r)
		}
		return true
	})
	for _, c := range order {
		if blocked.Has(c) {
			continue
		}
		if e.idx.slowConflict(inst, c) {
			continue
		}
		inst.Add(c)
		blocked.Add(c)
		if r := e.idx.rows[c]; r != nil {
			blocked.UnionWith(r)
		}
	}
}

// Resaturate restores maximality after a walk step took the candidates
// in removed out of inst: it collects the currently addable candidates
// in ascending order, shuffles that list with rng and adds them
// greedily. Its precondition is that inst was maximal w.r.t. excluded
// (and members, as in MaximizeWithin) before removed left it, and is
// consistent now — the state Repair leaves a maximal instance in, with
// removed = before \ after.
//
// Under that precondition the result has exactly the distribution of a
// full MaximizeWithin pass: a candidate that is not addable now stays
// unaddable as inst grows (consistency is downward-closed), so the full
// pass skips it wherever it falls in the order, and a uniform
// permutation restricted to the addable subset is uniform on that
// subset. Only the rng stream differs: one draw per addable candidate
// instead of one per member.
//
// The addable candidates are found inside the touched set removed ∪
// rows[r] ∪ gate masks[r] over every r ∈ removed: a candidate was
// blocked before the step (inst was maximal), and it is unblocked now
// only if its blocking violation lost a member, which then lies in
// removed. Repair's `added` cannot reappear either: when Repair drops
// it, its violation consists of protected members, which never leave.
// A scan of every member with CanAdd finds the same ascending list.
func (e *Engine) Resaturate(inst, excluded, removed *bitset.Set, members []int, rng *rand.Rand) {
	order := e.addableAfter(inst, excluded, removed, members)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	e.addInOrder(inst, order)
}

// addableAfter lists, ascending, the candidates Resaturate may add: not
// in inst, excluded or retired, and consistent with inst.
func (e *Engine) addableAfter(inst, excluded, removed *bitset.Set, members []int) []int {
	order := e.order[:0]
	n := e.net.NumCandidates()
	if e.blocked == nil || e.blocked.Len() != n {
		e.blocked = bitset.New(n)
	}
	touched := e.blocked
	touched.Clear()
	removed.ForEach(func(r int) bool {
		touched.Add(r)
		if row := e.idx.rows[r]; row != nil {
			touched.UnionWith(row)
		}
		for i := range e.idx.gates {
			if m := e.idx.gates[i].masks[r]; m != nil {
				touched.UnionWith(m)
			}
		}
		return true
	})
	touched.DifferenceWith(inst)
	if excluded != nil {
		touched.DifferenceWith(excluded)
	}
	if e.idx.retiredMask != nil {
		touched.DifferenceWith(e.idx.retiredMask)
	}
	touched.ForEach(func(c int) bool {
		if !e.HasConflict(inst, c) {
			order = append(order, c)
		}
		return true
	})
	e.order = order
	return order
}

// addInOrder adds the candidates of order to inst greedily. Every one of
// them must have been addable to inst on entry, so only candidates after
// the first addition need a consistency check.
func (e *Engine) addInOrder(inst *bitset.Set, order []int) {
	grew := false
	for _, c := range order {
		if grew && e.HasConflict(inst, c) {
			continue
		}
		inst.Add(c)
		grew = true
	}
}

// repairScratch is Repair's per-fork victim accounting: the running
// per-candidate violation counts and the flags of one repair round.
// Its two visitors are bound to method values once per fork
// (Engine.repairState), so handing them to ForEachAnd and to the chain
// streamers allocates nothing per call.
type repairScratch struct {
	idx      *conflictIndex
	inst     *bitset.Set
	approved *bitset.Set
	added    int
	counts   []int32 // per-candidate violation counts
	touched  []int   // candidates with counts[c] > 0
	chainBuf []int   // chain buffer for streaming enumeration

	anyViol, unrepairable bool

	pairFn func(d int) bool         // bound visitPair
	violFn func(members []int) bool // bound countViol
}

// repairState returns the fork's repair scratch, bound to one Repair
// call's arguments and sized for the current universe.
func (e *Engine) repairState(inst *bitset.Set, added int, approved *bitset.Set) *repairScratch {
	rs := e.rep
	if rs == nil {
		rs = &repairScratch{}
		rs.pairFn, rs.violFn = rs.visitPair, rs.countViol
		e.rep = rs
	}
	if n := e.net.NumCandidates(); len(rs.counts) < n {
		rs.counts = make([]int32, n)
	}
	rs.idx, rs.inst, rs.added, rs.approved = e.idx, inst, added, approved
	return rs
}

// visitPair accounts one pairwise violation {added, d}, weighted by how
// many pairwise constraints declare it.
func (rs *repairScratch) visitPair(d int) bool {
	rs.anyViol = true
	if rs.approved != nil && rs.approved.Has(d) {
		rs.unrepairable = true
		return false
	}
	if rs.counts[d] == 0 {
		rs.touched = append(rs.touched, d)
	}
	rs.counts[d] += int32(rs.idx.multiplicity(rs.added, d))
	return true
}

// countViol accounts one chain violation: every removable member (in
// inst, neither added nor approved) gains one count.
func (rs *repairScratch) countViol(members []int) bool {
	rs.anyViol = true
	removable := 0
	for _, ci := range members {
		if ci == rs.added || (rs.approved != nil && rs.approved.Has(ci)) {
			continue
		}
		if rs.inst.Has(ci) {
			if rs.counts[ci] == 0 {
				rs.touched = append(rs.touched, ci)
			}
			rs.counts[ci]++
			removable++
		}
	}
	if removable == 0 {
		rs.unrepairable = true
		return false
	}
	return true
}

// victim returns the candidate with the most counted violations
// (smallest index on ties) and clears the counts for the next round.
func (rs *repairScratch) victim() int {
	victim, best := -1, int32(-1)
	for _, ci := range rs.touched {
		if rs.counts[ci] > best || (rs.counts[ci] == best && ci < victim) {
			victim, best = ci, rs.counts[ci]
		}
	}
	rs.clear()
	return victim
}

// clear zeroes the touched counts.
func (rs *repairScratch) clear() {
	for _, ci := range rs.touched {
		rs.counts[ci] = 0
	}
	rs.touched = rs.touched[:0]
}

// Repair implements Algorithm 4: it adds candidate `added` to inst and
// then greedily removes the non-protected correspondence involved in the
// most violations until no violation involving `added` remains.
// Protected correspondences (approved ∪ {added}) are never removed; if a
// violation consists solely of protected members, `added` itself is
// removed instead (the move becomes a no-op), since removing anything
// else cannot resolve it.
//
// The precondition matching the paper's use is that inst is consistent
// before the call; then every violation involves `added` and the loop
// terminates with a consistent instance.
//
// The pairwise violations are read directly off the conflict matrix
// (inst ∩ rows[added], word-wise), the chain violations are streamed,
// and victim counts accumulate in the fork's repairScratch with a
// smallest-index tie-break — deterministic, with zero allocations once
// the scratch has warmed up.
func (e *Engine) Repair(inst *bitset.Set, added int, approved *bitset.Set) {
	inst.Add(added)
	rs := e.repairState(inst, added, approved)
	row := e.idx.rows[added]
	for {
		rs.anyViol, rs.unrepairable = false, false
		if row != nil {
			inst.ForEachAnd(row, rs.pairFn)
		}
		if !rs.unrepairable {
			for i := range e.idx.gates {
				g := &e.idx.gates[i]
				if !g.gatePasses(inst, added) {
					continue
				}
				rs.chainBuf = g.con.ForEachChain(inst, added, rs.chainBuf, rs.violFn)
				if rs.unrepairable {
					break
				}
			}
		}
		if rs.unrepairable {
			// Unrepairable without touching protected members: drop the
			// newly added correspondence.
			rs.clear()
			inst.Remove(added)
			return
		}
		if !rs.anyViol {
			return
		}
		inst.Remove(rs.victim())
	}
}

// ViolationCount returns the number of distinct violations among the
// members of inst; used to reproduce Table III. Deduplication hashes the
// (kind, sorted members) fingerprint and compares violations only on
// collision, instead of allocating a string key per violation.
func (e *Engine) ViolationCount(inst *bitset.Set) int {
	viols := e.Violations(inst)
	seen := make(map[uint64][]Violation, len(viols))
	count := 0
	for _, v := range viols {
		fp := v.fingerprint()
		dup := false
		for _, w := range seen[fp] {
			if v.equal(w) {
				dup = true
				break
			}
		}
		if !dup {
			seen[fp] = append(seen[fp], v)
			count++
		}
	}
	return count
}

// RetiredMask returns the mask of candidates the network had tombstoned
// when the engine was compiled (nil when none). The returned set must
// not be mutated.
func (e *Engine) RetiredMask() *bitset.Set { return e.idx.retiredMask }

// FullInstance returns the instance containing every live (non-retired)
// candidate; with ViolationCount it reports the violations among the raw
// matcher output.
func (e *Engine) FullInstance() *bitset.Set {
	inst := e.NewInstance()
	for c := 0; c < e.net.NumCandidates(); c++ {
		if !e.net.Retired(c) {
			inst.Add(c)
		}
	}
	return inst
}
