package constraints

import (
	"math/rand"
	"sort"

	"schemanet/internal/bitset"
	"schemanet/internal/schema"
)

// interpreted is the reference evaluator the differential tests hold the
// compiled engine to: every query dispatches through the Constraint
// interface, with no conflict index, no gate masks and no scratch. It
// implements the per-walk-step primitives with the compiled engine's
// signatures and rng consumption, so identically seeded walks must agree
// bit for bit. Retired candidates are never addable, as on the engine.
type interpreted struct {
	net  *schema.Network
	cons []Constraint
}

func newInterpreted(net *schema.Network, cons ...Constraint) *interpreted {
	return &interpreted{net: net, cons: cons}
}

func (r *interpreted) HasConflict(inst *bitset.Set, c int) bool {
	for _, con := range r.cons {
		if con.HasConflict(inst, c) {
			return true
		}
	}
	return false
}

func (r *interpreted) Consistent(inst *bitset.Set) bool {
	ok := true
	inst.ForEach(func(c int) bool {
		ok = !r.HasConflict(inst, c)
		return ok
	})
	return ok
}

// addable reports whether c is outside inst, excluded and the retired
// candidates, and consistent with inst.
func (r *interpreted) addable(inst, excluded *bitset.Set, c int) bool {
	if inst.Has(c) || (excluded != nil && excluded.Has(c)) || r.net.Retired(c) {
		return false
	}
	return !r.HasConflict(inst, c)
}

// universe returns members, or every candidate when members is nil.
func (r *interpreted) universe(members []int) []int {
	if members != nil {
		return members
	}
	all := make([]int, r.net.NumCandidates())
	for c := range all {
		all[c] = c
	}
	return all
}

func (r *interpreted) Maximal(inst, excluded *bitset.Set) bool {
	return r.MaximalWithin(inst, excluded, nil)
}

func (r *interpreted) MaximalWithin(inst, excluded *bitset.Set, members []int) bool {
	for _, c := range r.universe(members) {
		if r.addable(inst, excluded, c) {
			return false
		}
	}
	return true
}

func (r *interpreted) Maximize(inst, excluded *bitset.Set, rng *rand.Rand) {
	r.MaximizeWithin(inst, excluded, nil, rng)
}

// MaximizeWithin visits the members (every candidate when nil) in an
// rng-shuffled order and adds each one that is addable at its turn.
func (r *interpreted) MaximizeWithin(inst, excluded *bitset.Set, members []int, rng *rand.Rand) {
	order := append([]int(nil), r.universe(members)...)
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, c := range order {
		if r.addable(inst, excluded, c) {
			inst.Add(c)
		}
	}
}

// Resaturate scans every member for the addable ones, shuffles that
// ascending list and adds greedily; removed is not consulted.
func (r *interpreted) Resaturate(inst, excluded, _ *bitset.Set, members []int, rng *rand.Rand) {
	var order []int
	for _, c := range r.universe(members) {
		if r.addable(inst, excluded, c) {
			order = append(order, c)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, c := range order {
		if !r.HasConflict(inst, c) {
			inst.Add(c)
		}
	}
}

// Repair is Algorithm 4 kept deliberately naive (a map and a sort per
// round): add `added`, then remove the unprotected member involved in the
// most violations (smallest index on ties) until none involves `added`;
// drop `added` instead when a violation has no unprotected member.
func (r *interpreted) Repair(inst *bitset.Set, added int, approved *bitset.Set) {
	inst.Add(added)
	for {
		var viols []Violation
		for _, con := range r.cons {
			viols = append(viols, con.ConflictsWith(inst, added)...)
		}
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
		keys := make([]int, 0, len(counts))
		//lint:sorted keys are collected and sorted (sort.Ints below) before the deterministic scan
		for ci := range counts {
			keys = append(keys, ci)
		}
		sort.Ints(keys)
		victim, best := -1, -1
		for _, ci := range keys {
			if counts[ci] > best {
				victim, best = ci, counts[ci]
			}
		}
		inst.Remove(victim)
	}
}
