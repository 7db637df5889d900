package constraints

import (
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/schema"
)

// randomExclusivePairs draws attribute pairs for a MutualExclusion
// constraint so the differential tests cover the pluggable pairwise
// path, including pairs that overlap one-to-one conflicts.
func randomExclusivePairs(net *schema.Network, rng *rand.Rand, count int) [][2]schema.AttrID {
	nAttrs := net.NumAttributes()
	if nAttrs < 2 {
		return nil
	}
	pairs := make([][2]schema.AttrID, 0, count)
	for i := 0; i < count; i++ {
		a := schema.AttrID(rng.Intn(nAttrs))
		b := schema.AttrID(rng.Intn(nAttrs))
		if a == b {
			continue
		}
		pairs = append(pairs, [2]schema.AttrID{a, b})
	}
	return pairs
}

// enginePair builds a compiled engine and its interpreted reference over
// the same Γ = {one-to-one, cycle, mutex} on one random network.
func enginePair(t testing.TB, net *schema.Network, rng *rand.Rand, maxCycleLen int) (*Engine, *interpreted) {
	t.Helper()
	pairs := randomExclusivePairs(net, rng, 4)
	gamma := func() []Constraint {
		cons := []Constraint{NewOneToOne(net), NewCycle(net, maxCycleLen)}
		if len(pairs) > 0 {
			cons = append(cons, NewMutualExclusion(net, pairs))
		}
		return cons
	}
	return NewEngine(net, gamma()...), newInterpreted(net, gamma()...)
}

func randomInstance(net *schema.Network, rng *rand.Rand, density float64) *bitset.Set {
	inst := bitset.New(net.NumCandidates())
	for c := 0; c < net.NumCandidates(); c++ {
		if rng.Float64() < density {
			inst.Add(c)
		}
	}
	return inst
}

func TestCompiledHasConflictMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 30; trial++ {
		net := randomNetwork(t, rng, 3+rng.Intn(2), 3, 0.4)
		n := net.NumCandidates()
		if n == 0 {
			continue
		}
		eng, ref := enginePair(t, net, rng, 3+rng.Intn(2))
		for rep := 0; rep < 4; rep++ {
			inst := randomInstance(net, rng, rng.Float64())
			for c := 0; c < n; c++ {
				if got, want := eng.HasConflict(inst, c), ref.HasConflict(inst, c); got != want {
					t.Fatalf("trial %d: HasConflict(%v, %d) compiled=%v interpreted=%v",
						trial, inst, c, got, want)
				}
			}
			if got, want := eng.Consistent(inst), ref.Consistent(inst); got != want {
				t.Fatalf("trial %d: Consistent compiled=%v interpreted=%v", trial, got, want)
			}
			if got, want := eng.Maximal(inst, nil), ref.Maximal(inst, nil); got != want {
				t.Fatalf("trial %d: Maximal compiled=%v interpreted=%v", trial, got, want)
			}
		}
	}
}

func TestCompiledMaximizeMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	for trial := 0; trial < 25; trial++ {
		net := randomNetwork(t, rng, 3+rng.Intn(2), 3, 0.4)
		if net.NumCandidates() == 0 {
			continue
		}
		eng, ref := enginePair(t, net, rng, 3)
		seed := rng.Int63()
		start := randomInstance(net, rng, 0.1)
		var excluded *bitset.Set
		if rng.Float64() < 0.5 {
			excluded = randomInstance(net, rng, 0.2)
		}
		// Maximize can start from an inconsistent instance here; the
		// greedy pass only decides about candidates outside it, and both
		// paths must decide identically.
		a, b := start.Clone(), start.Clone()
		eng.Maximize(a, excluded, rand.New(rand.NewSource(seed)))
		ref.Maximize(b, excluded, rand.New(rand.NewSource(seed)))
		if !a.Equal(b) {
			t.Fatalf("trial %d: Maximize diverged\ncompiled    %v\ninterpreted %v", trial, a, b)
		}
		// The deterministic (nil rng) pass must agree too.
		a, b = start.Clone(), start.Clone()
		eng.Maximize(a, excluded, nil)
		ref.Maximize(b, excluded, nil)
		if !a.Equal(b) {
			t.Fatalf("trial %d: deterministic Maximize diverged", trial)
		}
	}
}

func TestCompiledRepairMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 25; trial++ {
		net := randomNetwork(t, rng, 3+rng.Intn(2), 3, 0.4)
		n := net.NumCandidates()
		if n == 0 {
			continue
		}
		eng, ref := enginePair(t, net, rng, 3)
		a, b := bitset.New(n), bitset.New(n)
		seed := rng.Int63()
		eng.Maximize(a, nil, rand.New(rand.NewSource(seed)))
		ref.Maximize(b, nil, rand.New(rand.NewSource(seed)))
		var approved *bitset.Set
		if rng.Float64() < 0.7 {
			approved = randomInstance(net, rng, 0.3)
			approved.IntersectWith(a)
		}
		for step := 0; step < 15; step++ {
			c := rng.Intn(n)
			eng.Repair(a, c, approved)
			ref.Repair(b, c, approved)
			if !a.Equal(b) {
				t.Fatalf("trial %d step %d: Repair(%d) diverged\ncompiled    %v\ninterpreted %v",
					trial, step, c, a, b)
			}
		}
	}
}

// TestCompiledRepairCountsOverlappingConstraints pins the multiplicity
// layers: when a mutex pair coincides with a one-to-one conflict pair,
// the interpreted engine sees two violations for that pair and its
// victim counting weights it double — the compiled conflict matrix alone
// would see one.
func TestCompiledRepairCountsOverlappingConstraints(t *testing.T) {
	v := buildVideoNet(t)
	// Exclusive (releaseDate, screenDate) makes {c2,c4}, {c3,c5} (the
	// one-to-one conflicts) also mutex conflicts, plus {c2,c5}, {c3,c4}.
	pairs := [][2]schema.AttrID{{2, 3}}
	gamma := func() []Constraint {
		return []Constraint{NewOneToOne(v.net), NewCycle(v.net, 3), NewMutualExclusion(v.net, pairs)}
	}
	eng := NewEngine(v.net, gamma()...)
	ref := newInterpreted(v.net, gamma()...)
	if got := eng.idx.multiplicity(v.c2, v.c4); got != 2 {
		t.Fatalf("multiplicity(c2, c4) = %d, want 2 (one-to-one + mutex)", got)
	}
	if got := eng.idx.multiplicity(v.c2, v.c5); got != 1 {
		t.Fatalf("multiplicity(c2, c5) = %d, want 1 (mutex only)", got)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		a, b := bitset.New(5), bitset.New(5)
		seed := rng.Int63()
		eng.Maximize(a, nil, rand.New(rand.NewSource(seed)))
		ref.Maximize(b, nil, rand.New(rand.NewSource(seed)))
		for step := 0; step < 6; step++ {
			c := rng.Intn(5)
			eng.Repair(a, c, nil)
			ref.Repair(b, c, nil)
			if !a.Equal(b) {
				t.Fatalf("trial %d step %d: overlapping-pair Repair diverged", trial, step)
			}
		}
	}
}

func TestViolationCountMatchesStringDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		net := randomNetwork(t, rng, 3, 3, 0.5)
		if net.NumCandidates() == 0 {
			continue
		}
		eng, _ := enginePair(t, net, rng, 3)
		inst := randomInstance(net, rng, 0.6)
		// Reference dedup: the old string-key map.
		seen := make(map[string]bool)
		for _, viol := range eng.Violations(inst) {
			seen[viol.Key()] = true
		}
		if got, want := eng.ViolationCount(inst), len(seen); got != want {
			t.Fatalf("trial %d: ViolationCount = %d, string-dedup reference = %d", trial, got, want)
		}
	}
}

// --- Repair contract property tests ----------------------------------

func TestPropertyRepairPostconditionConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 25; trial++ {
		net := randomNetwork(t, rng, 3+rng.Intn(2), 3, 0.4)
		n := net.NumCandidates()
		if n == 0 {
			continue
		}
		eng, _ := enginePair(t, net, rng, 3)
		inst := bitset.New(n)
		eng.Maximize(inst, nil, rng)
		var approved *bitset.Set
		if rng.Float64() < 0.7 {
			approved = randomInstance(net, rng, 0.4)
			approved.IntersectWith(inst)
		}
		for step := 0; step < 10; step++ {
			c := rng.Intn(n)
			eng.Repair(inst, c, approved)
			if !eng.Consistent(inst) {
				t.Fatalf("trial %d step %d: inconsistent after Repair(%d): %v",
					trial, step, c, eng.Violations(inst))
			}
		}
	}
}

func TestPropertyRepairNeverRemovesProtected(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 25; trial++ {
		net := randomNetwork(t, rng, 3+rng.Intn(2), 3, 0.4)
		n := net.NumCandidates()
		if n == 0 {
			continue
		}
		eng, _ := enginePair(t, net, rng, 3)
		inst := bitset.New(n)
		eng.Maximize(inst, nil, rng)
		approved := randomInstance(net, rng, 0.5)
		approved.IntersectWith(inst)
		for step := 0; step < 10; step++ {
			c := rng.Intn(n)
			eng.Repair(inst, c, approved)
			if !inst.ContainsAll(approved) {
				t.Fatalf("trial %d step %d: Repair(%d) removed a protected member", trial, step, c)
			}
		}
	}
}

func TestPropertyRepairAllProtectedIsNoOp(t *testing.T) {
	// When the whole instance is approved, a conflicting addition cannot
	// remove anything: the instance must come back bit-for-bit unchanged,
	// and a non-conflicting addition must land exactly.
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 25; trial++ {
		net := randomNetwork(t, rng, 3+rng.Intn(2), 3, 0.4)
		n := net.NumCandidates()
		if n == 0 {
			continue
		}
		eng, _ := enginePair(t, net, rng, 3)
		inst := bitset.New(n)
		eng.Maximize(inst, nil, rng)
		approved := inst.Clone()
		for step := 0; step < 10; step++ {
			c := rng.Intn(n)
			if inst.Has(c) {
				continue
			}
			before := inst.Clone()
			conflicts := eng.HasConflict(inst, c)
			eng.Repair(inst, c, approved)
			if conflicts {
				if !inst.Equal(before) {
					t.Fatalf("trial %d: all-protected Repair(%d) mutated the instance", trial, c)
				}
			} else {
				want := before.Clone()
				want.Add(c)
				if !inst.Equal(want) {
					t.Fatalf("trial %d: conflict-free Repair(%d) did not just add it", trial, c)
				}
				inst.CopyFrom(before) // keep approved == inst invariant
			}
		}
	}
}

// --- Gate and mask plumbing -------------------------------------------

func TestCycleCompileGate(t *testing.T) {
	v := buildVideoNet(t)
	cc := NewCycle(v.net, 3)
	comp := cc.Compile()
	if comp.Pairwise() || !comp.Gated() {
		t.Fatal("cycle must compile to a gated form")
	}
	// Every candidate sits on the single triangle; its mask holds the
	// candidates of the two other edges and its minimum is 2.
	for c := 0; c < v.net.NumCandidates(); c++ {
		if comp.GateMasks[c] == nil {
			t.Fatalf("candidate %d has no gate mask on the triangle network", c)
		}
		if comp.GateMasks[c].Has(c) {
			t.Fatalf("gate mask of %d contains itself", c)
		}
		if got := comp.GateMin[c]; got != 2 {
			t.Fatalf("GateMin[%d] = %d, want 2 on a triangle", c, got)
		}
	}
	// c1's pair covers edges BBC–EoverI; the other-edge candidates are
	// exactly {c2, c3, c4, c5}.
	want := bitset.FromIndices(5, v.c2, v.c3, v.c4, v.c5)
	if !comp.GateMasks[v.c1].Equal(want) {
		t.Fatalf("gate mask of c1 = %v, want %v", comp.GateMasks[v.c1], want)
	}
}

// TestCycleGateMasksSymmetric pins the gate-mask facts Resaturate's
// touched set relies on, on random networks: d ∈ masks[r] ⟺
// r ∈ masks[d], and every pair of members of a cycle violation lies in
// each other's mask, so a candidate a removal unblocked is always in
// the removed candidate's mask.
func TestCycleGateMasksSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 20; trial++ {
		net := randomNetwork(t, rng, 3+rng.Intn(3), 3, 0.4)
		n := net.NumCandidates()
		cc := NewCycle(net, 3+rng.Intn(2))
		masks := cc.Compile().GateMasks
		for r := 0; r < n; r++ {
			if masks[r] == nil {
				continue
			}
			masks[r].ForEach(func(d int) bool {
				if masks[d] == nil || !masks[d].Has(r) {
					t.Fatalf("trial %d: %d ∈ masks[%d] but %d ∉ masks[%d]", trial, d, r, r, d)
				}
				return true
			})
		}
		for _, v := range cc.Violations(randomInstance(net, rng, 0.7)) {
			for _, r := range v.Cands {
				for _, d := range v.Cands {
					if d != r && (masks[r] == nil || !masks[r].Has(d)) {
						t.Fatalf("trial %d: violation %v: %d ∉ masks[%d]", trial, v.Cands, d, r)
					}
				}
			}
		}
	}
}

func TestOneToOneCompileRowsMatchInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := randomNetwork(t, rng, 4, 3, 0.5)
	n := net.NumCandidates()
	o := NewOneToOne(net)
	comp := o.Compile()
	if !comp.Pairwise() {
		t.Fatal("one-to-one must compile to conflict rows")
	}
	full := bitset.New(n)
	full.SetAll()
	for c := 0; c < n; c++ {
		row := comp.ConflictRows[c]
		for d := 0; d < n; d++ {
			inRow := row != nil && row.Has(d)
			probe := bitset.FromIndices(n, d)
			if got := o.HasConflict(probe, c); got != inRow && d != c {
				t.Fatalf("row[%d] disagrees with interpreted conflict at %d: row=%v interp=%v",
					c, d, inRow, got)
			}
		}
		if row != nil && row.Has(c) {
			t.Fatalf("row[%d] contains itself", c)
		}
	}
}

// TestCompileRetiredFromTombstones: compiling a network with tombstoned
// candidates derives the retired mask from the tombstones alone, and
// no saturation admits a tombstoned candidate — a fresh compile of a
// retired network blocks retirees the way the serving layer needs.
func TestCompileRetiredFromTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		net := randomNetwork(t, rng, 3+rng.Intn(2), 3, 0.5)
		n := net.NumCandidates()
		if n == 0 {
			continue
		}
		tombs := bitset.New(n)
		for r := rng.Intn(4); r > 0; r-- {
			c := rng.Intn(n)
			if tombs.Has(c) {
				continue
			}
			if err := net.RetireCandidate(c); err != nil {
				t.Fatal(err)
			}
			tombs.Add(c)
		}
		e, _ := enginePair(t, net, rng, 3)
		switch rm := e.RetiredMask(); {
		case tombs.Empty() && rm != nil:
			t.Fatalf("trial %d: retired mask %v on a network without tombstones", trial, rm)
		case !tombs.Empty() && (rm == nil || !rm.Equal(tombs)):
			t.Fatalf("trial %d: retired mask %v, tombstones %v", trial, rm, tombs)
		}
		parts := e.Components()
		tombs.ForEach(func(c int) bool {
			if k := parts.ComponentOf(c); len(parts.Members(k)) != 1 {
				t.Fatalf("trial %d: retired %d shares component %v", trial, c, parts.Members(k))
			}
			return true
		})
		for rep := 0; rep < 5; rep++ {
			inst := e.NewInstance()
			var rngArg *rand.Rand
			if rep > 0 {
				rngArg = rand.New(rand.NewSource(rng.Int63()))
			}
			e.Maximize(inst, nil, rngArg)
			if inst.AndCount(tombs) > 0 {
				t.Fatalf("trial %d: Maximize admitted a tombstoned candidate: %v ∩ %v", trial, inst, tombs)
			}
			if !e.Maximal(inst, nil) {
				t.Fatalf("trial %d: Maximize result %v is not maximal", trial, inst)
			}
			for k := 0; k < parts.NumComponents(); k++ {
				members := parts.Members(k)
				if !e.MaximalWithin(inst, nil, members) {
					t.Fatalf("trial %d: a tombstoned member of %v disqualifies %v", trial, members, inst)
				}
				sub := e.NewInstance()
				notMask := bitset.New(n)
				notMask.SetAll()
				notMask.DifferenceWith(bitset.FromIndices(n, members...))
				e.MaximizeWithin(sub, notMask, members, rngArg)
				if sub.AndCount(tombs) > 0 || !e.MaximalWithin(sub, nil, members) {
					t.Fatalf("trial %d: MaximizeWithin over %v gave %v", trial, members, sub)
				}
			}
		}
	}
}
