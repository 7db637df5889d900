package constraints

import (
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/schema"
)

// mutexNet builds two schemas where billing and shipping addresses are
// declared mutually exclusive concepts.
func mutexNet(t *testing.T) (*schema.Network, [][2]schema.AttrID) {
	t.Helper()
	b := schema.NewBuilder()
	b.AddSchema("left", "billingAddr", "shippingAddr") // attrs 0, 1
	b.AddSchema("right", "address", "addr2")           // attrs 2, 3
	b.ConnectAll()
	b.AddCorrespondence(0, 2, 0.8) // billing ↔ address
	b.AddCorrespondence(1, 2, 0.7) // shipping ↔ address (1-1 conflict too)
	b.AddCorrespondence(1, 3, 0.6) // shipping ↔ addr2
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Declaring 0 (billing) exclusive with 1 (shipping) means no
	// instance may select candidates touching both.
	return net, [][2]schema.AttrID{{0, 1}}
}

func TestMutualExclusionViolations(t *testing.T) {
	net, pairs := mutexNet(t)
	m := NewMutualExclusion(net, pairs)
	e := NewEngine(net, m)
	full := e.FullInstance()
	viols := m.Violations(full)
	// billing↔address conflicts with both shipping candidates: 2 pairs.
	if len(viols) != 2 {
		t.Fatalf("violations = %v, want 2", viols)
	}
	for _, v := range viols {
		if v.Constraint != KindMutex {
			t.Errorf("wrong kind %q", v.Constraint)
		}
		if len(v.Cands) != 2 {
			t.Errorf("violation arity %d, want 2", len(v.Cands))
		}
	}
}

func TestMutualExclusionHasConflict(t *testing.T) {
	net, pairs := mutexNet(t)
	m := NewMutualExclusion(net, pairs)
	c02 := net.CandidateIndex(0, 2)
	c13 := net.CandidateIndex(1, 3)

	inst := FromIndicesFor(net, c13)
	if !m.HasConflict(inst, c02) {
		t.Fatal("billing candidate must conflict with selected shipping candidate")
	}
	empty := FromIndicesFor(net)
	if m.HasConflict(empty, c02) {
		t.Fatal("no conflict on empty instance")
	}
}

func TestMutualExclusionComposesWithEngine(t *testing.T) {
	net, pairs := mutexNet(t)
	e := NewEngine(net,
		NewOneToOne(net),
		NewCycle(net, DefaultMaxCycleLen),
		NewMutualExclusion(net, pairs),
	)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		inst := e.NewInstance()
		e.Maximize(inst, nil, rng)
		if !e.Consistent(inst) {
			t.Fatalf("maximized instance violates composed constraints: %v",
				e.Violations(inst))
		}
		// The exclusive pair must never be covered jointly.
		c02 := net.CandidateIndex(0, 2)
		c13 := net.CandidateIndex(1, 3)
		c12 := net.CandidateIndex(1, 2)
		if inst.Has(c02) && (inst.Has(c13) || inst.Has(c12)) {
			t.Fatalf("instance %v selects mutually exclusive candidates", inst)
		}
	}
}

func TestMutualExclusionRepair(t *testing.T) {
	net, pairs := mutexNet(t)
	e := NewEngine(net, NewMutualExclusion(net, pairs))
	c02 := net.CandidateIndex(0, 2)
	c13 := net.CandidateIndex(1, 3)
	inst := FromIndicesFor(net, c13)
	e.Repair(inst, c02, nil)
	if !e.Consistent(inst) {
		t.Fatal("repair left inconsistency")
	}
	if !inst.Has(c02) {
		t.Fatal("repair should keep the newly added candidate")
	}
	if inst.Has(c13) {
		t.Fatal("repair should have removed the excluded partner")
	}
}

// TestMutualExclusionDeterministicOrder pins the violation order: with
// the exclusion sets held in maps, ConflictsWith and Violations came
// back in map-iteration order, which differs between runs. The sorted
// partner representation must yield ascending-candidate order no matter
// how the pairs were declared.
func TestMutualExclusionDeterministicOrder(t *testing.T) {
	b := schema.NewBuilder()
	b.AddSchema("left", "a0", "a1", "a2", "a3", "a4", "a5", "a6") // attrs 0..6
	b.AddSchema("right", "z")                                     // attr 7
	b.ConnectAll()
	for a := schema.AttrID(0); a < 7; a++ {
		b.AddCorrespondence(a, 7, 0.5)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// a0 excludes a1..a6, declared shuffled and with duplicates.
	pairs := [][2]schema.AttrID{{4, 0}, {0, 2}, {6, 0}, {0, 1}, {3, 0}, {0, 5}, {0, 1}, {2, 0}}
	m := NewMutualExclusion(net, pairs)

	c := make([]int, 7)
	for a := 0; a < 7; a++ {
		c[a] = net.CandidateIndex(schema.AttrID(a), 7)
	}
	full := NewEngine(net, m).FullInstance()

	var want []Violation
	for a := 1; a <= 6; a++ {
		want = append(want, newViolation(KindMutex, c[0], c[a]))
	}
	got := m.ConflictsWith(full, c[0])
	if len(got) != len(want) {
		t.Fatalf("ConflictsWith returned %d violations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Cands[0] != want[i].Cands[0] || got[i].Cands[1] != want[i].Cands[1] {
			t.Fatalf("ConflictsWith[%d] = %v, want %v (order must be deterministic)", i, got[i], want[i])
		}
	}
	viols := m.Violations(full)
	if len(viols) != len(want) {
		t.Fatalf("Violations returned %d, want %d", len(viols), len(want))
	}
	for i := range want {
		if viols[i].Cands[0] != want[i].Cands[0] || viols[i].Cands[1] != want[i].Cands[1] {
			t.Fatalf("Violations[%d] = %v, want %v (order must be deterministic)", i, viols[i], want[i])
		}
	}
}

func TestMutualExclusionNoPairsIsNeutral(t *testing.T) {
	net, _ := mutexNet(t)
	m := NewMutualExclusion(net, nil)
	e := NewEngine(net, m)
	if !e.Consistent(e.FullInstance()) {
		t.Fatal("empty exclusion list must not fire")
	}
}

// FromIndicesFor returns an instance over net's candidate universe
// containing exactly the given candidate indices.
func FromIndicesFor(net *schema.Network, indices ...int) *bitset.Set {
	return bitset.FromIndices(net.NumCandidates(), indices...)
}
