package sampling

import (
	"math"
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/schema"
)

// buildVideoNet reconstructs the §II-A example network; see the
// constraints package tests for the candidate layout. Its four matching
// instances are {c1,c2,c3}, {c1,c4,c5}, {c2,c5}, {c3,c4}.
func buildVideoNet(t testing.TB) (*constraints.Engine, map[string]int) {
	t.Helper()
	b := schema.NewBuilder()
	b.AddSchema("EoverI", "productionDate")
	b.AddSchema("BBC", "date")
	b.AddSchema("DVDizzy", "releaseDate", "screenDate")
	b.ConnectAll()
	b.AddCorrespondence(0, 1, 0.9)
	b.AddCorrespondence(1, 2, 0.8)
	b.AddCorrespondence(0, 2, 0.7)
	b.AddCorrespondence(1, 3, 0.6)
	b.AddCorrespondence(0, 3, 0.5)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{
		"c1": net.CandidateIndex(0, 1),
		"c2": net.CandidateIndex(1, 2),
		"c3": net.CandidateIndex(0, 2),
		"c4": net.CandidateIndex(1, 3),
		"c5": net.CandidateIndex(0, 3),
	}
	return constraints.Default(net), idx
}

func TestEnumerateAllVideoNetwork(t *testing.T) {
	e, idx := buildVideoNet(t)
	instances, err := EnumerateAll(e, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 4 {
		t.Fatalf("enumerated %d instances, want 4", len(instances))
	}
	want := map[string]bool{
		bitset.FromIndices(5, idx["c1"], idx["c2"], idx["c3"]).Key(): true,
		bitset.FromIndices(5, idx["c1"], idx["c4"], idx["c5"]).Key(): true,
		bitset.FromIndices(5, idx["c2"], idx["c5"]).Key():            true,
		bitset.FromIndices(5, idx["c3"], idx["c4"]).Key():            true,
	}
	for _, inst := range instances {
		if !want[inst.Key()] {
			t.Errorf("unexpected instance %v", inst)
		}
		if !e.Consistent(inst) || !e.Maximal(inst, nil) {
			t.Errorf("instance %v not maximal consistent", inst)
		}
	}
}

func TestEnumerateAllWithFeedback(t *testing.T) {
	e, idx := buildVideoNet(t)
	n := e.Network().NumCandidates()

	t.Run("approve c1", func(t *testing.T) {
		approved := bitset.FromIndices(n, idx["c1"])
		instances, err := EnumerateAll(e, approved, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(instances) != 2 {
			t.Fatalf("got %d instances, want 2", len(instances))
		}
		for _, inst := range instances {
			if !inst.Has(idx["c1"]) {
				t.Errorf("instance %v missing approved c1", inst)
			}
		}
	})

	t.Run("disapprove c1", func(t *testing.T) {
		disapproved := bitset.FromIndices(n, idx["c1"])
		instances, err := EnumerateAll(e, nil, disapproved, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Without c1 the cycle constraint can never fire (c1 is the only
		// candidate on the SA-SB edge), so the instances are the maximal
		// independent sets of the 1-1 conflict graph on {c2..c5}:
		// {c2,c3}, {c2,c5}, {c3,c4}, {c4,c5}. Note {c2,c3} and {c4,c5}
		// are maximal only *because* c1 is excluded — the disapproval
		// view-maintenance subtlety of DESIGN.md.
		if len(instances) != 4 {
			t.Fatalf("got %d instances, want 4", len(instances))
		}
		for _, inst := range instances {
			if inst.Has(idx["c1"]) {
				t.Errorf("instance %v contains disapproved c1", inst)
			}
			if inst.Count() != 2 {
				t.Errorf("instance %v has %d members, want 2", inst, inst.Count())
			}
		}
	})

	t.Run("conflicting approvals yield nothing", func(t *testing.T) {
		// c3 and c5 violate one-to-one; approving both is unsatisfiable.
		approved := bitset.FromIndices(n, idx["c3"], idx["c5"])
		instances, err := EnumerateAll(e, approved, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(instances) != 0 {
			t.Fatalf("got %d instances for inconsistent approvals, want 0", len(instances))
		}
	})
}

func TestEnumerateAllLimit(t *testing.T) {
	e, _ := buildVideoNet(t)
	if _, err := EnumerateAll(e, nil, nil, 2); err == nil {
		t.Fatal("want ErrTooManyInstances with limit 2")
	} else if _, ok := err.(ErrTooManyInstances); !ok {
		t.Fatalf("wrong error type: %v", err)
	}
}

func TestExactProbabilitiesVideoNetwork(t *testing.T) {
	e, idx := buildVideoNet(t)
	probs, count, err := ExactProbabilities(e, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("instance count = %d, want 4", count)
	}
	// Every candidate appears in exactly 2 of the 4 instances.
	for name, c := range idx {
		if math.Abs(probs[c]-0.5) > 1e-9 {
			t.Errorf("p(%s) = %v, want 0.5", name, probs[c])
		}
	}
}

func TestExactProbabilitiesWithApproval(t *testing.T) {
	e, idx := buildVideoNet(t)
	n := e.Network().NumCandidates()
	approved := bitset.FromIndices(n, idx["c2"])
	probs, count, err := ExactProbabilities(e, approved, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Instances containing c2: {c1,c2,c3} and {c2,c5}.
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if probs[idx["c2"]] != 1 {
		t.Errorf("p(c2) = %v, want 1", probs[idx["c2"]])
	}
	if probs[idx["c4"]] != 0 {
		t.Errorf("p(c4) = %v, want 0", probs[idx["c4"]])
	}
	if math.Abs(probs[idx["c1"]]-0.5) > 1e-9 {
		t.Errorf("p(c1) = %v, want 0.5", probs[idx["c1"]])
	}
}

func TestStoreAddDedupAndCounts(t *testing.T) {
	st := NewStore(5, 10)
	a := bitset.FromIndices(5, 0, 1)
	b := bitset.FromIndices(5, 2)
	if !st.Add(a) {
		t.Fatal("first Add should report new")
	}
	if st.Add(a.Clone()) {
		t.Fatal("duplicate Add should report not-new")
	}
	st.Add(b)
	if st.Size() != 2 {
		t.Fatalf("Size = %d, want 2 (the store is a set)", st.Size())
	}
	if got := st.Probability(0); got != 0.5 {
		t.Fatalf("P(0) = %v, want 0.5", got)
	}
	if got := st.Probability(4); got != 0 {
		t.Fatalf("P(4) = %v, want 0", got)
	}
	with, without := st.Partition(0)
	if with != 1 || without != 1 {
		t.Fatalf("Partition = %d/%d, want 1/1", with, without)
	}
}

func TestStoreEmptyProbability(t *testing.T) {
	st := NewStore(3, 10)
	if got := st.Probability(0); got != 0 {
		t.Fatalf("empty store probability = %v, want 0", got)
	}
	if st.LastInstance() != nil {
		t.Fatal("LastInstance on empty store should be nil")
	}
}

func TestStoreApplyAssertionApprove(t *testing.T) {
	st := NewStore(5, 10)
	st.Add(bitset.FromIndices(5, 0, 1))
	st.Add(bitset.FromIndices(5, 1, 2))
	st.Add(bitset.FromIndices(5, 3))
	st.MarkComplete()
	st.ApplyAssertion(1, true)
	if st.Size() != 2 {
		t.Fatalf("Size after approval = %d, want 2", st.Size())
	}
	if got := st.Probability(1); got != 1 {
		t.Fatalf("P(1) = %v, want 1 after approval", got)
	}
	if got := st.Probability(3); got != 0 {
		t.Fatalf("P(3) = %v, want 0", got)
	}
	if !st.Complete() {
		t.Fatal("approval filtering must preserve completeness")
	}
}

func TestStoreApplyAssertionDisapprove(t *testing.T) {
	st := NewStore(5, 10)
	st.Add(bitset.FromIndices(5, 0, 1))
	st.Add(bitset.FromIndices(5, 2))
	st.MarkComplete()
	st.ApplyAssertion(1, false)
	if st.Size() != 1 {
		t.Fatalf("Size after disapproval = %d, want 1", st.Size())
	}
	if st.Complete() {
		t.Fatal("disapproval must clear completeness (new maximal instances may exist)")
	}
	// The removed instance can be re-added after filtering.
	if !st.Add(bitset.FromIndices(5, 0)) {
		t.Fatal("index should have forgotten the removed instance")
	}
}

func TestStoreNeedsResample(t *testing.T) {
	st := NewStore(3, 2)
	if !st.NeedsResample() {
		t.Fatal("empty store below nmin should need resampling")
	}
	st.Add(bitset.FromIndices(3, 0))
	st.Add(bitset.FromIndices(3, 1))
	if st.NeedsResample() {
		t.Fatal("store at nmin should not need resampling")
	}
	st.ApplyAssertion(0, false)
	if !st.NeedsResample() {
		t.Fatal("store below nmin should need resampling")
	}
	st.MarkComplete()
	if st.NeedsResample() {
		t.Fatal("complete store never needs resampling")
	}
}

func TestStoreCondCounts(t *testing.T) {
	st := NewStore(4, 10)
	st.Add(bitset.FromIndices(4, 0, 1))
	st.Add(bitset.FromIndices(4, 0, 2))
	st.Add(bitset.FromIndices(4, 3))
	counts, total := st.CondCounts(0, true)
	if total != 2 {
		t.Fatalf("with-total = %d, want 2", total)
	}
	if counts[1] != 1 || counts[2] != 1 || counts[3] != 0 {
		t.Fatalf("with-counts = %v", counts)
	}
	counts, total = st.CondCounts(0, false)
	if total != 1 || counts[3] != 1 {
		t.Fatalf("without partition wrong: total=%d counts=%v", total, counts)
	}
}

func TestSamplerProducesMaximalConsistentInstances(t *testing.T) {
	e, _ := buildVideoNet(t)
	rng := rand.New(rand.NewSource(1))
	s := NewSampler(e, DefaultConfig(), rng)
	store := s.Sample(nil, nil, 100)
	if store.Size() == 0 {
		t.Fatal("no samples produced")
	}
	store.ForEachInstance(func(inst *bitset.Set) bool {
		if !e.Consistent(inst) {
			t.Errorf("inconsistent sample %v", inst)
		}
		if !e.Maximal(inst, nil) {
			t.Errorf("non-maximal sample %v", inst)
		}
		return true
	})
}

func TestSamplerCoversAllInstancesOfSmallNetwork(t *testing.T) {
	e, _ := buildVideoNet(t)
	rng := rand.New(rand.NewSource(2))
	s := NewSampler(e, DefaultConfig(), rng)
	store := s.Sample(nil, nil, 200)
	if store.DistinctSize() != 4 {
		t.Fatalf("store holds %d distinct instances, want all 4", store.DistinctSize())
	}
	exact, _, err := ExactProbabilities(e, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// All four instances found → the set-based estimate is exact.
	for c, p := range store.Probabilities() {
		if math.Abs(p-exact[c]) > 1e-9 {
			t.Errorf("p(%d) = %v, exact %v", c, p, exact[c])
		}
	}
}

func TestSamplerRespectsFeedback(t *testing.T) {
	e, idx := buildVideoNet(t)
	n := e.Network().NumCandidates()
	rng := rand.New(rand.NewSource(3))
	s := NewSampler(e, DefaultConfig(), rng)
	approved := bitset.FromIndices(n, idx["c1"])
	disapproved := bitset.FromIndices(n, idx["c2"])
	store := s.Sample(approved, disapproved, 150)
	if store.Size() == 0 {
		t.Fatal("no samples")
	}
	store.ForEachInstance(func(inst *bitset.Set) bool {
		if !inst.Has(idx["c1"]) {
			t.Errorf("sample %v missing approved c1", inst)
		}
		if inst.Has(idx["c2"]) {
			t.Errorf("sample %v contains disapproved c2", inst)
		}
		return true
	})
	// The instances satisfying both assertions are {c1,c4,c5} and
	// {c1,c3} (the latter is maximal because c4 opens the cycle with
	// {c1,c3} and c5 conflicts with c3). The sampler must find both.
	if store.DistinctSize() != 2 {
		t.Errorf("store holds %d distinct instances, want 2", store.DistinctSize())
	}
	if p := store.Probability(idx["c1"]); p != 1 {
		t.Errorf("p(c1) = %v, want 1", p)
	}
	if p := store.Probability(idx["c2"]); p != 0 {
		t.Errorf("p(c2) = %v, want 0", p)
	}
	if p := store.Probability(idx["c4"]); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("p(c4) = %v, want 0.5", p)
	}
}

func TestSamplerDeterministicUnderSeed(t *testing.T) {
	e, _ := buildVideoNet(t)
	run := func(seed int64) []float64 {
		s := NewSampler(e, DefaultConfig(), rand.New(rand.NewSource(seed)))
		return s.Sample(nil, nil, 60).Probabilities()
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probability %d differs under same seed: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSamplerWithoutMaximize(t *testing.T) {
	// Even without the maximality saturation the samples stay consistent
	// (the ablation configuration must not crash or emit garbage).
	e, _ := buildVideoNet(t)
	cfg := DefaultConfig()
	cfg.Maximize = false
	s := NewSampler(e, cfg, rand.New(rand.NewSource(5)))
	store := s.Sample(nil, nil, 50)
	store.ForEachInstance(func(inst *bitset.Set) bool {
		if !e.Consistent(inst) {
			t.Errorf("inconsistent sample %v", inst)
		}
		return true
	})
}

func TestSamplerOnLargerRandomNetwork(t *testing.T) {
	// A sanity run on a generated network: samples must be maximal
	// consistent and probabilities within [0,1].
	rng := rand.New(rand.NewSource(11))
	b := schema.NewBuilder()
	names := func(prefix string, k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = prefix + string(rune('a'+i))
		}
		return out
	}
	b.AddSchema("s0", names("x", 6)...)
	b.AddSchema("s1", names("y", 6)...)
	b.AddSchema("s2", names("z", 6)...)
	b.ConnectAll()
	// Dense random candidates.
	for a := 0; a < 6; a++ {
		for bb := 0; bb < 6; bb++ {
			if rng.Float64() < 0.4 {
				b.AddCorrespondence(schema.AttrID(a), schema.AttrID(6+bb), rng.Float64())
			}
			if rng.Float64() < 0.4 {
				b.AddCorrespondence(schema.AttrID(6+a), schema.AttrID(12+bb), rng.Float64())
			}
			if rng.Float64() < 0.4 {
				b.AddCorrespondence(schema.AttrID(a), schema.AttrID(12+bb), rng.Float64())
			}
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := constraints.Default(net)
	s := NewSampler(e, DefaultConfig(), rng)
	store := s.Sample(nil, nil, 120)
	if store.Size() < 2 {
		t.Fatalf("suspiciously few distinct instances: %d", store.Size())
	}
	checked := 0
	store.ForEachInstance(func(inst *bitset.Set) bool {
		if !e.Consistent(inst) || !e.Maximal(inst, nil) {
			t.Errorf("bad sample %v", inst)
		}
		checked++
		return checked < 30
	})
	for c, p := range store.Probabilities() {
		if p < 0 || p > 1 {
			t.Fatalf("p(%d) = %v out of range", c, p)
		}
	}
}

// Partition returns how many instances contain c and how many do not.
// c must be tracked by this store.
func (st *Store) Partition(c int) (with, without int) {
	st.mustTrack(c)
	with = st.counts[st.columnOf(c)]
	return with, len(st.instances) - with
}
