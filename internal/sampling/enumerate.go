package sampling

import (
	"fmt"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
)

// ErrTooManyInstances is returned by EnumerateAll when the instance
// count exceeds the caller's limit — or when the search burns through
// the work bound derived from it (see EnumerateWithin): either way the
// instance space does not fit the budget.
type ErrTooManyInstances struct{ Limit int }

func (e ErrTooManyInstances) Error() string {
	return fmt.Sprintf("sampling: more than %d matching instances", e.Limit)
}

// Is makes any ErrTooManyInstances value match any other under
// errors.Is, regardless of the Limit it carries — callers classify the
// overflow, they don't care which budget tripped it.
func (e ErrTooManyInstances) Is(target error) bool {
	_, ok := target.(ErrTooManyInstances)
	return ok
}

// Enumeration work bound: a limit > 0 also caps the branch-and-bound
// search at enumWorkFactor·limit + enumWorkFloor recursion nodes, so a
// budgeted call costs O(limit) even when the instance space (or the
// consistent-subset lattice the search walks) is astronomically larger.
// The floor keeps tiny budgets from starving legitimately twisty small
// components; the factor is deliberately tight — the hybrid inference
// probes pieces as they split and components on demand, so a failing
// probe must stay cheap (on top of the node count, each leaf pays one
// HasConflict per free candidate it left out — O(|free|), never
// O(universe)).
const (
	enumWorkFactor = 8
	enumWorkFloor  = 1024
)

// EnumerateAll returns every matching instance of the network under the
// given feedback: all maximal consistent subsets of the candidates that
// include approved and exclude disapproved (Definition 1). The search is
// exponential in the number of candidates; it powers the exact
// probabilities of Equation 1 and the Figure 7 experiment, where
// |C| ≤ 20. limit caps the number of instances (0 means no cap).
//
// If the approved set is itself inconsistent, no instance exists and an
// empty slice is returned.
func EnumerateAll(e *constraints.Engine, approved, disapproved *bitset.Set, limit int) ([]*bitset.Set, error) {
	return EnumerateWithin(e, approved, disapproved, nil, limit)
}

// EnumerateWithin is EnumerateAll restricted to one constraint-connected
// component: it returns every maximal consistent subset of the `within`
// candidates that includes approved ∩ within and excludes disapproved.
// Maximality is relative to the component — candidates outside `within`
// are treated as excluded, which matches global maximality because
// constraints never couple candidates across components (see
// Engine.Components). within nil means the whole universe, making
// EnumerateAll the trivial restriction.
//
// A limit > 0 bounds both the instance count and the search work (see
// enumWorkFactor): exceeding either returns ErrTooManyInstances, so a
// budgeted probe — the hybrid inference's enumeration attempt — is
// O(limit) no matter how large the component's subset lattice is.
func EnumerateWithin(e *constraints.Engine, approved, disapproved, within *bitset.Set, limit int) ([]*bitset.Set, error) {
	n := e.Network().NumCandidates()
	base := e.NewInstance()
	if approved != nil {
		// Verify the (restricted) approved set is self-consistent while
		// building it.
		ok := true
		approved.ForEach(func(c int) bool {
			if within != nil && !within.Has(c) {
				return true
			}
			if e.HasConflict(base, c) {
				ok = false
				return false
			}
			base.Add(c)
			return true
		})
		if !ok {
			return nil, nil
		}
	}

	// Free candidates: tracked, not asserted either way, not retired
	// (retired candidates can never join an instance, matching the
	// retired-mask block in Maximize/Maximal). Every other candidate is
	// in base or excluded (F−, retired, or outside within), so a leaf is
	// maximal iff each free candidate it left out conflicts with it —
	// the leaf check scans the free list, not the universe. free is
	// never nil: a nil member list would mean the whole universe.
	net := e.Network()
	free := []int{}
	addFree := func(c int) bool {
		if !base.Has(c) && (disapproved == nil || !disapproved.Has(c)) && !net.Retired(c) {
			free = append(free, c)
		}
		return true
	}
	if within != nil {
		within.ForEach(addFree)
	} else {
		for c := 0; c < n; c++ {
			addFree(c)
		}
	}

	var out []*bitset.Set
	var overflow error
	cur := base.Clone()

	work, maxWork := 0, 0
	if limit > 0 {
		maxWork = enumWorkFactor*limit + enumWorkFloor
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if maxWork > 0 {
			if work++; work > maxWork {
				overflow = ErrTooManyInstances{Limit: limit}
				return false
			}
		}
		if i == len(free) {
			if e.MaximalWithin(cur, nil, free) {
				if limit > 0 && len(out) >= limit {
					overflow = ErrTooManyInstances{Limit: limit}
					return false
				}
				out = append(out, cur.Clone())
			}
			return true
		}
		c := free[i]
		// Include branch (only when consistent).
		if !e.HasConflict(cur, c) {
			cur.Add(c)
			if !rec(i + 1) {
				return false
			}
			cur.Remove(c)
		}
		// Exclude branch.
		return rec(i + 1)
	}
	rec(0)
	if overflow != nil {
		return nil, overflow
	}
	return out, nil
}

// ExactProbabilities computes Equation 1 directly: for every candidate,
// the fraction of all matching instances that contain it. It returns the
// probabilities and the instance count. When no instance exists, all
// probabilities are zero.
//
// Every call enumerates from scratch. A caller that applies a *sequence*
// of assertions to one instance space should enumerate once and maintain
// the list with FilterInstances instead — that is how the exact
// inference backend of core.PMN stays O(instances) per assertion.
func ExactProbabilities(e *constraints.Engine, approved, disapproved *bitset.Set, limit int) ([]float64, int, error) {
	instances, err := EnumerateAll(e, approved, disapproved, limit)
	if err != nil {
		return nil, 0, err
	}
	return ProbabilitiesOf(instances, e.Network().NumCandidates()), len(instances), nil
}

// ProbabilitiesOf computes the Equation 1 probabilities over a
// materialized instance list: for every candidate of an n-sized
// universe, the fraction of instances containing it. All zeros when the
// list is empty.
func ProbabilitiesOf(instances []*bitset.Set, n int) []float64 {
	probs := make([]float64, n)
	if len(instances) == 0 {
		return probs
	}
	for _, inst := range instances {
		inst.ForEach(func(c int) bool {
			probs[c]++
			return true
		})
	}
	for c := range probs {
		probs[c] /= float64(len(instances))
	}
	return probs
}

// FilterInstances is the shared instance-filter kernel of exact view
// maintenance: given the complete matching-instance list Ω under some
// feedback F (distinct maximal consistent subsets, per EnumerateWithin),
// it returns the complete list under F extended with one assertion of c
// — without re-enumerating.
//
//   - Approving keeps exactly the instances containing c: maximality
//     does not depend on F+, so the maximal consistent supersets of
//     F+ ∪ {c} are precisely the old instances that contain c.
//   - Disapproving keeps the instances without c, plus each instance
//     containing c *stripped* of it when the remainder is maximal once c
//     joins the excluded set. Those stripped survivors are exactly the
//     previously non-maximal sets that excluding c surfaces: any new
//     instance J was blocked only by c (J ∪ {c} consistent, all other
//     extensions were already blocked), and the maximal extension of
//     J ∪ {c} in the old list is J ∪ {c} itself — consistency is
//     downward-closed, so a strictly larger extension would contradict
//     J's new maximality. Hence every new instance is old-instance∖{c},
//     and the isMaximal probe (Engine.Maximal against the updated
//     exclusions) selects which strips qualify. Results are
//     deduplicated by fingerprint with an Equal check on collision.
//
// The returned slice reuses the backing array of instances (dropped
// tail entries are nilled out), and stripped instances are mutated in
// place — the caller must own the list.
func FilterInstances(instances []*bitset.Set, c int, approve bool, isMaximal func(*bitset.Set) bool) []*bitset.Set {
	kept := instances[:0]
	if approve {
		for _, inst := range instances {
			if inst.Has(c) {
				kept = append(kept, inst)
			}
		}
	} else {
		index := make(map[uint64][]int, len(instances))
		add := func(inst *bitset.Set) {
			fp := inst.Fingerprint()
			for _, i := range index[fp] {
				if kept[i].Equal(inst) {
					return
				}
			}
			index[fp] = append(index[fp], len(kept))
			kept = append(kept, inst)
		}
		for _, inst := range instances {
			if !inst.Has(c) {
				add(inst)
				continue
			}
			inst.Remove(c)
			if isMaximal(inst) {
				add(inst)
			}
		}
	}
	for i := len(kept); i < len(instances); i++ {
		instances[i] = nil
	}
	return kept
}
