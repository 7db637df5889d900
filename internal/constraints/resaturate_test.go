package constraints

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/schema"
)

// forEachPerm calls fn with every permutation of xs (Heap's algorithm).
// The slice passed to fn is xs itself, permuted in place; fn must not
// retain it.
func forEachPerm(xs []int, fn func(perm []int)) {
	c := make([]int, len(xs))
	fn(xs)
	for i := 0; i < len(xs); {
		if c[i] < i {
			if i%2 == 0 {
				xs[0], xs[i] = xs[i], xs[0]
			} else {
				xs[c[i]], xs[i] = xs[i], xs[c[i]]
			}
			fn(xs)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// orderDistribution runs finish on a copy of start for every
// permutation of order and returns the exact distribution of the
// results, keyed by instance.
func orderDistribution(start *bitset.Set, order []int, finish func(inst *bitset.Set, perm []int)) map[string]*big.Rat {
	counts := map[string]int64{}
	total := int64(0)
	forEachPerm(append([]int(nil), order...), func(perm []int) {
		inst := start.Clone()
		finish(inst, perm)
		counts[inst.Key()]++
		total++
	})
	dist := make(map[string]*big.Rat, len(counts))
	//lint:sorted builds a keyed map; insertion order cannot affect it
	for k, n := range counts {
		dist[k] = big.NewRat(n, total)
	}
	return dist
}

// maximalInstances enumerates every maximal consistent subset of a tiny
// network by brute force.
func maximalInstances(e *Engine) []*bitset.Set {
	n := e.Network().NumCandidates()
	var out []*bitset.Set
	for mask := 0; mask < 1<<n; mask++ {
		inst := bitset.New(n)
		for c := 0; c < n; c++ {
			if mask&(1<<c) != 0 {
				inst.Add(c)
			}
		}
		if e.Consistent(inst) && e.Maximal(inst, nil) {
			out = append(out, inst)
		}
	}
	return out
}

// firesBoth reports whether the full instance violates both one-to-one
// and cycle constraints, so a walk step on the network exercises the
// pairwise rows and the gate masks alike.
func firesBoth(e *Engine) bool {
	var oneToOne, cycle bool
	for _, v := range e.Violations(e.FullInstance()) {
		switch v.Constraint {
		case KindCycle:
			cycle = true
		default:
			oneToOne = true
		}
	}
	return oneToOne && cycle
}

// TestResaturateExactDistribution checks the claim Resaturate rests on:
// from a maximal instance, Repair followed by greedy saturation in a
// uniform order of every member gives exactly the distribution that
// Repair followed by greedy addition in a uniform order of the addable
// list gives. Both sides enumerate every order, so the comparison is
// between exact rationals. It covers every maximal instance, every free
// move, and moves with and without protected members (which exercises
// Repair dropping the move).
func TestResaturateExactDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1717))
	nets, steps, branching := 0, 0, 0
	for nets < 8 {
		net := randomNetwork(t, rng, 3+rng.Intn(2), 2+rng.Intn(2), 0.2+0.3*rng.Float64())
		n := net.NumCandidates()
		if n < 5 || n > 8 {
			continue
		}
		e := Default(net)
		if !firesBoth(e) {
			continue
		}
		nets++
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		ref := map[string]map[string]*big.Rat{}
		for _, inst := range maximalInstances(e) {
			approvals := []*bitset.Set{nil, randomInstance(net, rng, 0.5)}
			approvals[1].IntersectWith(inst)
			for c := 0; c < n; c++ {
				if inst.Has(c) {
					continue
				}
				for _, approved := range approvals {
					next := inst.Clone()
					e.Repair(next, c, approved)
					removed := inst.Clone()
					removed.DifferenceWith(next)
					want, ok := ref[next.Key()]
					if !ok {
						want = orderDistribution(next, members, func(x *bitset.Set, perm []int) {
							e.maximizeOrder(x, nil, perm)
						})
						ref[next.Key()] = want
					}
					addable := e.addableAfter(next, nil, removed, members)
					got := orderDistribution(next, addable, e.addInOrder)
					if len(got) != len(want) {
						t.Fatalf("net %d: %v + move %d: %d outcomes, reference %d", nets, inst, c, len(got), len(want))
					}
					for k, p := range want {
						if q, ok := got[k]; !ok || q.Cmp(p) != 0 {
							t.Fatalf("net %d: %v + move %d: outcome %q has probability %v, reference %v",
								nets, inst, c, k, q, p)
						}
					}
					steps++
					if len(want) > 1 {
						branching++
					}
				}
			}
		}
	}
	// Steps whose saturation has a single outcome compare trivially; the
	// fixture must include steps where the order matters.
	if branching == 0 {
		t.Fatalf("none of %d walk steps has more than one saturation outcome", steps)
	}
}

// TestResaturateMatchesInterpreted runs the same walk on the compiled
// engine and the interpreted reference: Repair a random free move, then
// Resaturate with identically seeded rngs. The instances and the next
// draw of both rngs must agree after every step, and the instance must
// stay consistent and maximal. Half the walks are restricted to one
// component (excluded ⊇ ¬members).
func TestResaturateMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 25; trial++ {
		net := randomNetwork(t, rng, 3+rng.Intn(2), 3, 0.4)
		if net.NumCandidates() == 0 {
			continue
		}
		eng, ref := enginePair(t, net, rng, 3+rng.Intn(2))
		resaturateAgree(t, trial, net, eng, ref, rng, 0)
	}
}

// TestWalkMatchesInterpreted pins the sampler's walk (Algorithm 3) at
// the primitive level. The walk calls only MaximizeWithin, Repair and
// Resaturate, and draws its restarts and moves from the same rng, as
// the sampler does. Under one seed the compiled engine and the
// interpreted reference must leave the same instance and the same rng
// stream after every step, through mid-walk restarts and under
// approved and disapproved feedback.
func TestWalkMatchesInterpreted(t *testing.T) {
	v := buildVideoNet(t)
	n := v.net.NumCandidates()
	eng := Default(v.net)
	ref := newInterpreted(v.net, NewOneToOne(v.net), NewCycle(v.net, DefaultMaxCycleLen))
	approved := bitset.FromIndices(n, v.c1)
	disapproved := bitset.FromIndices(n, v.c4)
	for seed := int64(1); seed <= 5; seed++ {
		walkAgree(t, fmt.Sprintf("video seed %d", seed), eng, ref, approved, disapproved, nil, seed, 80, 0.2)
	}
	rng := rand.New(rand.NewSource(1212))
	for trial := 0; trial < 25; trial++ {
		net := randomNetwork(t, rng, 3+rng.Intn(2), 3, 0.4)
		if net.NumCandidates() == 0 {
			continue
		}
		eng, ref := enginePair(t, net, rng, 3+rng.Intn(2))
		resaturateAgree(t, trial, net, eng, ref, rng, 0.2)
	}
}

// resaturateAgree draws disapproved feedback, an optional component
// restriction and approved feedback consistent with both, then runs
// walkAgree over them.
func resaturateAgree(t *testing.T, trial int, net *schema.Network, eng *Engine, ref *interpreted, rng *rand.Rand, restartProb float64) {
	t.Helper()
	n := net.NumCandidates()
	excluded := randomInstance(net, rng, 0.15)
	var members []int
	if rng.Float64() < 0.5 {
		comps := Default(net).Components()
		members = comps.Members(rng.Intn(comps.NumComponents()))
		within := bitset.FromIndices(n, members...)
		notWithin := bitset.New(n)
		notWithin.SetAll()
		notWithin.DifferenceWith(within)
		excluded.UnionWith(notWithin)
	}
	base := bitset.New(n)
	eng.MaximizeWithin(base, excluded, members, rng)
	approved := randomInstance(net, rng, 0.3)
	approved.IntersectWith(base)
	walkAgree(t, fmt.Sprintf("trial %d", trial), eng, ref, approved, excluded, members, rng.Int63(), 20, restartProb)
}

// walkAgree runs the sampler's walk on eng and ref from rngs seeded
// alike: a fresh start is approved ∪ MaximizeWithin; each step first
// restarts with probability restartProb (after the first step), then
// moves a uniformly drawn free candidate in with Repair and restores
// maximality with Resaturate. It fails on the first step where the
// moves, the instances or the next draws of the two rngs differ.
func walkAgree(t *testing.T, label string, eng *Engine, ref *interpreted,
	approved, excluded *bitset.Set, members []int, seed int64, steps int, restartProb float64) {
	t.Helper()
	n := eng.Network().NumCandidates()
	ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	a, b := bitset.New(n), bitset.New(n)
	fresh := func() {
		a.CopyFrom(approved)
		b.CopyFrom(approved)
		eng.MaximizeWithin(a, excluded, members, ra)
		ref.MaximizeWithin(b, excluded, members, rb)
	}
	draw := func(f func(r *rand.Rand) int64, what string, step int) int64 {
		x, y := f(ra), f(rb)
		if x != y {
			t.Fatalf("%s step %d: %s draws diverged: compiled %d, interpreted %d", label, step, what, x, y)
		}
		return x
	}
	fresh()
	if !a.Equal(b) {
		t.Fatalf("%s: starting saturation diverged\ncompiled    %v\ninterpreted %v", label, a, b)
	}
	removed, free := bitset.New(n), bitset.New(n)
	for step := 0; step < steps; step++ {
		if step > 0 && restartProb > 0 {
			restart := draw(func(r *rand.Rand) int64 {
				if r.Float64() < restartProb {
					return 1
				}
				return 0
			}, "restart", step)
			if restart == 1 {
				fresh()
			}
		}
		free.SetAll()
		free.DifferenceWith(a)
		free.DifferenceWith(excluded)
		if free.Empty() {
			return
		}
		nFree := int64(free.Count())
		c := free.NthMember(int(draw(func(r *rand.Rand) int64 { return r.Int63n(nFree) }, "move", step)))
		removed.CopyFrom(a)
		eng.Repair(a, c, approved)
		ref.Repair(b, c, approved)
		removed.DifferenceWith(a)
		eng.Resaturate(a, excluded, removed, members, ra)
		ref.Resaturate(b, excluded, removed, members, rb)
		if !a.Equal(b) {
			t.Fatalf("%s step %d: walk diverged after move %d\ncompiled    %v\ninterpreted %v",
				label, step, c, a, b)
		}
		draw((*rand.Rand).Int63, "next", step)
		if !ref.Consistent(a) || !ref.MaximalWithin(a, excluded, members) || !eng.MaximalWithin(a, excluded, members) {
			t.Fatalf("%s step %d: walk left a non-instance %v", label, step, a)
		}
	}
}

// TestRepairAllocationFree pins the compiled Repair at zero allocations
// once the fork's scratch has warmed up, on a network where the moves
// hit cycle chains (the streamed, callback-driven victim accounting).
func TestRepairAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := randomNetwork(t, rng, 4, 4, 0.5)
	e := Default(net)
	n := net.NumCandidates()
	inst := e.NewInstance()
	e.Maximize(inst, nil, rng)
	cycle := e.Constraints()[1]
	chains := 0
	for c := 0; c < n; c++ {
		if !inst.Has(c) && len(cycle.ConflictsWith(inst, c)) > 0 {
			chains++
		}
	}
	if chains == 0 {
		t.Fatal("fixture has no move that closes a cycle chain")
	}
	approved := randomInstance(net, rng, 0.3)
	approved.IntersectWith(inst)
	work := inst.Clone()
	move := func(c int) {
		work.CopyFrom(inst)
		e.Repair(work, c, approved)
		work.CopyFrom(inst)
		e.Repair(work, c, nil)
	}
	for c := 0; c < n; c++ {
		move(c) // warm the scratch up to its high-water mark
	}
	next := 0
	allocs := testing.AllocsPerRun(4*n, func() {
		move(next % n)
		next++
	})
	if allocs != 0 {
		t.Fatalf("Repair allocates %.2f objects per call pair, want 0", allocs)
	}
}
