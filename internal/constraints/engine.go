package constraints

import (
	"math/rand"
	"sort"
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
// per-candidate interface dispatch. NewInterpreted skips compilation and
// is the reference implementation the differential tests compare
// against.
//
// Concurrency: the query methods (HasConflict, ConflictsWith,
// Violations, Consistent, CanAdd, Maximal, MaximalWithin,
// ViolationCount, Components) are safe for concurrent use after
// construction — the network, the constraint set, and the compiled
// conflict index are all immutable.
// Maximize and Repair reuse engine-owned scratch and must be externally
// serialized; callers that need those primitives from several
// goroutines give each goroutine its own Fork, which shares the
// immutable compiled material and owns only the scratch.
type Engine struct {
	net   *schema.Network
	cons  []Constraint
	idx   *conflictIndex  // nil on the interpreted reference path
	parts *partitionCache // lazily computed partition, shared across forks

	// Scratch reused by the mutating primitives; per fork.
	order    []int       // Maximize: visit order
	blocked  *bitset.Set // Maximize: inst ∪ excluded ∪ conflict rows of inst
	counts   []int32     // Repair: per-candidate violation counts
	touched  []int       // Repair: candidates with counts[c] > 0
	chainBuf []int       // Repair: chain buffer for streaming enumeration
}

// partitionCache memoizes Engine.Components per engine family: the
// partition depends only on the compiled index, so forks share one
// cache. Since Engine.Grow/Retire mutate the index, the cache is a
// mutex-guarded mutable union-find rather than a sync.Once: Grow
// extends the persistent forest and merges the components a new
// candidate bridges; Retire re-partitions just the touched component.
// Every published *Partition value is itself immutable — topology
// changes install a fresh value, they never mutate one in place.
type partitionCache struct {
	mu sync.Mutex
	p  *Partition
	// uf is the persistent disjoint-set forest behind p on the compiled
	// path. It is nil when p was computed on a residual/interpreted
	// engine (trivial partition) and after a Retire (splits cannot be
	// expressed in a union-find; the next Grow rebuilds it).
	uf *unionFind
}

// NewEngine binds the constraints to the network and compiles them. The
// standard paper configuration is NewEngine(net, NewOneToOne(net),
// NewCycle(net, DefaultMaxCycleLen)); see Default.
func NewEngine(net *schema.Network, cons ...Constraint) *Engine {
	e := NewInterpreted(net, cons...)
	e.idx = compileAll(net, cons)
	return e
}

// NewInterpreted binds the constraints without compiling them: every
// query dispatches through the Constraint interface. This is the
// reference implementation kept for differential testing and debugging
// (the CondCounts pattern); production callers want NewEngine.
func NewInterpreted(net *schema.Network, cons ...Constraint) *Engine {
	return &Engine{net: net, cons: cons, parts: &partitionCache{}}
}

// Fork returns an engine sharing this engine's network, constraint set,
// compiled conflict index, and partition cache, with fresh scratch
// buffers. The shared material is immutable, so distinct forks may run
// the mutating primitives (Maximize, Repair) concurrently — this is how
// a decomposed PMN gives every component its own sampler without
// paying a recompilation per component.
func (e *Engine) Fork() *Engine {
	return &Engine{net: e.net, cons: e.cons, idx: e.idx, parts: e.parts}
}

// Default returns the compiled engine with the paper's constraint set
// Γ = {one-to-one, cycle}.
func Default(net *schema.Network) *Engine {
	return NewEngine(net, NewOneToOne(net), NewCycle(net, DefaultMaxCycleLen))
}

// DefaultInterpreted is Default on the interpreted reference path.
func DefaultInterpreted(net *schema.Network) *Engine {
	return NewInterpreted(net, NewOneToOne(net), NewCycle(net, DefaultMaxCycleLen))
}

// Compiled reports whether the engine runs on the compiled conflict
// index (false only for NewInterpreted).
func (e *Engine) Compiled() bool { return e.idx != nil }

// Network returns the bound network.
func (e *Engine) Network() *schema.Network { return e.net }

// Constraints returns the constraint set Γ.
func (e *Engine) Constraints() []Constraint { return e.cons }

// NewInstance returns an empty instance sized for the network's
// candidate set.
func (e *Engine) NewInstance() *bitset.Set {
	return bitset.New(e.net.NumCandidates())
}

// FromIndicesFor returns an instance over net's candidate universe
// containing exactly the given candidate indices.
func FromIndicesFor(net *schema.Network, indices ...int) *bitset.Set {
	return bitset.FromIndices(net.NumCandidates(), indices...)
}

// HasConflict reports whether candidate c, treated as selected, would
// participate in any violation given the other members of inst.
func (e *Engine) HasConflict(inst *bitset.Set, c int) bool {
	if e.idx == nil {
		for _, con := range e.cons {
			if con.HasConflict(inst, c) {
				return true
			}
		}
		return false
	}
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
	var retired *bitset.Set
	if e.idx != nil {
		retired = e.idx.retiredMask
	}
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
// O(|members|) HasConflict calls instead of a universe scan. A nil
// members slice means no restriction (plain Maximal). For an instance
// of the member sub-universe — inst ⊆ members, and constraints never
// couple members to non-members — the answer equals Maximal with
// excluded ∪ ¬members.
func (e *Engine) MaximalWithin(inst, excluded *bitset.Set, members []int) bool {
	if members == nil {
		return e.Maximal(inst, excluded)
	}
	var retired *bitset.Set
	if e.idx != nil {
		retired = e.idx.retiredMask
	}
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
// On the compiled path the pass maintains an incremental blocked mask —
// inst ∪ excluded ∪ the conflict rows of every member — so the pairwise
// admissibility test is one bit probe and adding c is one word-wise OR
// of its conflict row; only gate-passing candidates reach an interpreted
// check.
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
	if e.idx == nil {
		for _, c := range order {
			if inst.Has(c) || (excluded != nil && excluded.Has(c)) {
				continue
			}
			if e.CanAdd(inst, c) {
				inst.Add(c)
			}
		}
		return
	}
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
// On the compiled path the pairwise violations are read directly off the
// conflict matrix (inst ∩ rows[added], word-wise) and victim counts
// accumulate in a reusable indexed scratch with a smallest-index
// tie-break — the same deterministic result as the interpreted
// reference, with zero allocations in the loop.
func (e *Engine) Repair(inst *bitset.Set, added int, approved *bitset.Set) {
	if e.idx == nil {
		e.repairInterpreted(inst, added, approved)
		return
	}
	inst.Add(added)
	n := e.net.NumCandidates()
	if len(e.counts) < n {
		e.counts = make([]int32, n)
	}
	counts := e.counts
	touched := e.touched[:0]
	// The accounting closures are hoisted out of the repair loop (and
	// anyViol/unrepairable with them) so each Repair call allocates at
	// most their two captures, not two closures per iteration.
	var anyViol, unrepairable bool
	row := e.idx.rows[added]
	pairVisit := func(d int) bool {
		anyViol = true
		if approved != nil && approved.Has(d) {
			unrepairable = true
			return false
		}
		if counts[d] == 0 {
			touched = append(touched, d)
		}
		counts[d] += int32(e.idx.multiplicity(added, d))
		return true
	}
	// countViol mirrors the per-violation accounting of the interpreted
	// reference for chain (and residual) violations.
	countViol := func(members []int) bool {
		anyViol = true
		removable := 0
		for _, ci := range members {
			if ci == added || (approved != nil && approved.Has(ci)) {
				continue
			}
			if inst.Has(ci) {
				if counts[ci] == 0 {
					touched = append(touched, ci)
				}
				counts[ci]++
				removable++
			}
		}
		if removable == 0 {
			unrepairable = true
			return false
		}
		return true
	}
	for {
		anyViol, unrepairable = false, false
		if row != nil {
			inst.ForEachAnd(row, pairVisit)
		}
		if !unrepairable {
			for i := range e.idx.gates {
				g := &e.idx.gates[i]
				if !g.gatePasses(inst, added) {
					continue
				}
				if g.stream != nil {
					e.chainBuf = g.stream.ForEachChain(inst, added, e.chainBuf, countViol)
				} else {
					for _, v := range g.con.ConflictsWith(inst, added) {
						if !countViol(v.Cands) {
							break
						}
					}
				}
				if unrepairable {
					break
				}
			}
		}
		if !unrepairable {
			for _, con := range e.idx.residual {
				for _, v := range con.ConflictsWith(inst, added) {
					if !countViol(v.Cands) {
						break
					}
				}
				if unrepairable {
					break
				}
			}
		}
		if unrepairable {
			// Unrepairable without touching protected members: drop the
			// newly added correspondence.
			for _, ci := range touched {
				counts[ci] = 0
			}
			e.touched = touched[:0]
			inst.Remove(added)
			return
		}
		if !anyViol {
			e.touched = touched[:0]
			return
		}
		victim, best := -1, int32(-1)
		for _, ci := range touched {
			if counts[ci] > best || (counts[ci] == best && ci < victim) {
				victim, best = ci, counts[ci]
			}
		}
		for _, ci := range touched {
			counts[ci] = 0
		}
		touched = touched[:0]
		inst.Remove(victim)
	}
}

// repairInterpreted is the reference Repair over the Constraint
// interface, kept deliberately naive (per-iteration map + sort) so the
// differential tests compare the compiled path against an
// obviously-correct baseline.
func (e *Engine) repairInterpreted(inst *bitset.Set, added int, approved *bitset.Set) {
	inst.Add(added)
	for {
		viols := e.ConflictsWith(inst, added)
		if len(viols) == 0 {
			return
		}
		counts := make(map[int]int)
		for _, v := range viols {
			removable := 0
			for _, ci := range v.Cands {
				if ci == added || (approved != nil && approved.Has(ci)) {
					continue
				}
				if inst.Has(ci) {
					counts[ci]++
					removable++
				}
			}
			if removable == 0 {
				inst.Remove(added)
				return
			}
		}
		victim, best := -1, -1
		// Deterministic tie-break on the smallest index keeps the repair
		// reproducible under a fixed seed.
		keys := make([]int, 0, len(counts))
		//lint:sorted keys are collected and sorted (sort.Ints below) before the deterministic scan
		for ci := range counts {
			keys = append(keys, ci)
		}
		sort.Ints(keys)
		for _, ci := range keys {
			if counts[ci] > best {
				victim, best = ci, counts[ci]
			}
		}
		inst.Remove(victim)
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
