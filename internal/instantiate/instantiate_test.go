package instantiate

import (
	"math"
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/datagen"
	"schemanet/internal/graphs"
	"schemanet/internal/sampling"
	"schemanet/internal/schema"
)

// buildVideoNet reconstructs the §II-A example; matching instances are
// {c1,c2,c3}, {c1,c4,c5}, {c2,c5}, {c3,c4}.
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

func TestExactPrefersMinimalRepairDistance(t *testing.T) {
	e, idx := buildVideoNet(t)
	// Uniform probabilities: the triangles (3 members, Δ = 2) beat the
	// 2-member instances (Δ = 3).
	probs := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	inst, err := Exact(e, probs, nil, nil, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Count() != 3 {
		t.Fatalf("exact instance has %d members, want 3 (a triangle): %v", inst.Count(), inst)
	}
	_ = idx
}

func TestExactLikelihoodTieBreak(t *testing.T) {
	e, idx := buildVideoNet(t)
	n := e.Network().NumCandidates()
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 0.5
	}
	// Make the {c1,c4,c5} triangle clearly more likely.
	probs[idx["c4"]] = 0.9
	probs[idx["c5"]] = 0.9
	inst, err := Exact(e, probs, nil, nil, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := bitset.FromIndices(n, idx["c1"], idx["c4"], idx["c5"])
	if !inst.Equal(want) {
		t.Fatalf("exact = %v, want %v", inst, want)
	}
	// Without the likelihood criterion the tie between triangles is not
	// broken by probability; the result must still be a triangle.
	inst2, err := Exact(e, probs, nil, nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst2.Count() != 3 {
		t.Fatalf("no-likelihood exact has %d members, want 3", inst2.Count())
	}
}

func TestExactRespectsFeedback(t *testing.T) {
	e, idx := buildVideoNet(t)
	n := e.Network().NumCandidates()
	probs := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	approved := bitset.FromIndices(n, idx["c4"])
	inst, err := Exact(e, probs, approved, nil, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Has(idx["c4"]) {
		t.Fatal("exact instance must include approved c4")
	}
	disapproved := bitset.FromIndices(n, idx["c1"])
	inst, err = Exact(e, probs, nil, disapproved, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Has(idx["c1"]) {
		t.Fatal("exact instance contains disapproved c1")
	}
}

func TestExactEmptyWhenNoInstances(t *testing.T) {
	e, idx := buildVideoNet(t)
	n := e.Network().NumCandidates()
	// Approving the conflicting pair {c3, c5} leaves no instances.
	approved := bitset.FromIndices(n, idx["c3"], idx["c5"])
	inst, err := Exact(e, []float64{0.5, 0.5, 0.5, 0.5, 0.5}, approved, nil, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Empty() {
		t.Fatalf("want empty instance for unsatisfiable feedback, got %v", inst)
	}
}

func sampleStore(t testing.TB, e *constraints.Engine, seed int64, n int) *sampling.Store {
	t.Helper()
	s := sampling.NewSampler(e, sampling.DefaultConfig(), rand.New(rand.NewSource(seed)))
	return s.Sample(nil, nil, n)
}

func TestHeuristicMatchesExactOnVideoNetwork(t *testing.T) {
	e, idx := buildVideoNet(t)
	n := e.Network().NumCandidates()
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 0.5
	}
	probs[idx["c2"]] = 0.95
	probs[idx["c3"]] = 0.95
	store := sampleStore(t, e, 1, 100)
	rng := rand.New(rand.NewSource(2))
	got := Heuristic(e, store, probs, nil, nil, DefaultConfig(), rng)
	want, err := Exact(e, probs, nil, nil, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("heuristic %v != exact %v", got, want)
	}
}

func TestHeuristicOutputAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, err := datagen.SyntheticNetwork(datagen.Scale(datagen.BP(), 0.25),
		datagen.DefaultSyntheticOpts(80), rng)
	if err != nil {
		t.Fatal(err)
	}
	e := constraints.Default(d.Network)
	s := sampling.NewSampler(e, sampling.DefaultConfig(), rng)
	store := s.Sample(nil, nil, 150)
	probs := store.Probabilities()
	for trial := 0; trial < 5; trial++ {
		inst := Heuristic(e, store, probs, nil, nil, DefaultConfig(), rng)
		if !e.Consistent(inst) {
			t.Fatalf("trial %d: heuristic output inconsistent", trial)
		}
		if !e.Maximal(inst, nil) {
			t.Fatalf("trial %d: heuristic output not maximal", trial)
		}
	}
}

func TestHeuristicRespectsFeedback(t *testing.T) {
	e, idx := buildVideoNet(t)
	n := e.Network().NumCandidates()
	probs := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	approved := bitset.FromIndices(n, idx["c4"])
	disapproved := bitset.FromIndices(n, idx["c2"])
	s := sampling.NewSampler(e, sampling.DefaultConfig(), rand.New(rand.NewSource(4)))
	store := s.Sample(approved, disapproved, 80)
	rng := rand.New(rand.NewSource(5))
	inst := Heuristic(e, store, probs, approved, disapproved, DefaultConfig(), rng)
	if !inst.Has(idx["c4"]) {
		t.Fatal("heuristic dropped an approved correspondence")
	}
	if inst.Has(idx["c2"]) {
		t.Fatal("heuristic included a disapproved correspondence")
	}
}

func TestHeuristicWithoutSamples(t *testing.T) {
	e, _ := buildVideoNet(t)
	probs := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	rng := rand.New(rand.NewSource(6))
	inst := Heuristic(e, nil, probs, nil, nil, DefaultConfig(), rng)
	if !e.Consistent(inst) || !e.Maximal(inst, nil) {
		t.Fatalf("no-store heuristic output invalid: %v", inst)
	}
}

func TestHeuristicNearExactOnRandomNetworks(t *testing.T) {
	// On small random networks the heuristic's repair distance must be
	// close to the exact optimum (within 1), and equal most of the time.
	rng := rand.New(rand.NewSource(7))
	worse := 0
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		d, err := datagen.SyntheticNetwork(datagen.Scale(datagen.BP(), 0.08),
			datagen.SyntheticOpts{TargetCount: 16, Precision: 0.6, ConflictBias: 0.8},
			rng)
		if err != nil {
			t.Fatal(err)
		}
		e := constraints.Default(d.Network)
		if e.Network().NumCandidates() > 20 {
			continue
		}
		s := sampling.NewSampler(e, sampling.DefaultConfig(), rng)
		store := s.Sample(nil, nil, 100)
		probs := store.Probabilities()
		full := e.FullInstance()
		got := Heuristic(e, store, probs, nil, nil, DefaultConfig(), rng)
		want, err := Exact(e, probs, nil, nil, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		dGot := got.SymmetricDiffCount(full)
		dWant := want.SymmetricDiffCount(full)
		if dGot < dWant {
			t.Fatalf("trial %d: heuristic beat the exact optimum?! %d < %d", trial, dGot, dWant)
		}
		if dGot > dWant {
			worse++
			if dGot-dWant > 1 {
				t.Errorf("trial %d: heuristic Δ=%d far from optimum Δ=%d", trial, dGot, dWant)
			}
		}
	}
	if worse > trials/2 {
		t.Errorf("heuristic missed the optimum in %d/%d trials", worse, trials)
	}
}

func TestTheorem1MISEquivalence(t *testing.T) {
	// Under one-to-one only, minimal repair distance = maximum
	// independent set of the conflict graph (Theorem 1). Cross-check the
	// exact instantiator against the graph solver.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		d, err := datagen.SyntheticNetwork(datagen.Scale(datagen.BP(), 0.08),
			datagen.SyntheticOpts{TargetCount: 14, Precision: 0.6, ConflictBias: 0.9},
			rng)
		if err != nil {
			t.Fatal(err)
		}
		net := d.Network
		n := net.NumCandidates()
		if n == 0 || n > 18 {
			continue
		}
		e := constraints.NewEngine(net, constraints.NewOneToOne(net))
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = 0.5
		}
		inst, err := Exact(e, probs, nil, nil, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Build the 1-1 conflict graph and solve MIS exactly.
		g := conflictGraph(e, n)
		mis := g.MaximumIndependentSet()
		if inst.Count() != len(mis) {
			t.Fatalf("trial %d: exact instantiation |I|=%d, MIS=%d", trial, inst.Count(), len(mis))
		}
	}
}

// TestHeuristicContradictoryApprovals injects unsatisfiable feedback:
// both members of a one-to-one conflict approved. No matching instance
// exists; the heuristic must still terminate and honor the approvals
// (consistency is impossible by construction — the caller broke the
// assertions-are-correct contract).
func TestHeuristicContradictoryApprovals(t *testing.T) {
	e, idx := buildVideoNet(t)
	n := e.Network().NumCandidates()
	probs := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	approved := bitset.FromIndices(n, idx["c3"], idx["c5"])
	rng := rand.New(rand.NewSource(10))
	inst := Heuristic(e, nil, probs, approved, nil, DefaultConfig(), rng)
	if !inst.Has(idx["c3"]) || !inst.Has(idx["c5"]) {
		t.Fatalf("heuristic dropped approved members: %v", inst)
	}
}

func TestTabuQueue(t *testing.T) {
	q := newTabuQueue(2, 16)
	q.add(1)
	q.add(2)
	if !q.has(1) || !q.has(2) {
		t.Fatal("tabu lost fresh entries")
	}
	q.add(3) // evicts 1
	if q.has(1) {
		t.Fatal("tabu did not evict oldest")
	}
	if !q.has(2) || !q.has(3) {
		t.Fatal("tabu evicted wrong entry")
	}
	q.add(2) // duplicate is a no-op
	if !q.has(3) {
		t.Fatal("duplicate add evicted an entry")
	}
	// Size 0 disables.
	q0 := newTabuQueue(0, 16)
	q0.add(9)
	if q0.has(9) {
		t.Fatal("zero-size tabu should be disabled")
	}
}

func TestRouletteWheel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	probs := []float64{0.9, 0.1, 0}
	counts := make([]int, 3)
	for i := 0; i < 2000; i++ {
		c := rouletteWheel([]int{0, 1, 2}, probs, rng)
		counts[c]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[2] {
		t.Fatalf("selection not fitness-proportionate: %v", counts)
	}
	// All-zero weights degrade to uniform.
	z := rouletteWheel([]int{1, 2}, []float64{0, 0, 0}, rng)
	if z != 1 && z != 2 {
		t.Fatalf("uniform fallback picked %d", z)
	}
	if got := rouletteWheel(nil, probs, rng); got != -1 {
		t.Fatalf("empty pool should return -1, got %d", got)
	}
}

func TestLogLikelihoodOrdering(t *testing.T) {
	probs := []float64{0.9, 0.9, 0.1}
	hi := bitset.FromIndices(3, 0, 1)
	lo := bitset.FromIndices(3, 0, 2)
	if logLikelihood(hi, probs) <= logLikelihood(lo, probs) {
		t.Fatal("higher-probability members must yield higher likelihood")
	}
	// Zero probabilities do not produce -Inf.
	z := bitset.FromIndices(3, 2)
	if math.IsInf(logLikelihood(z, []float64{0, 0, 0}), -1) {
		t.Fatal("zero probability must be floored")
	}
}

// conflictGraph builds the one-to-one conflict graph of Theorem 1.
func conflictGraph(e *constraints.Engine, n int) *graphs.Graph {
	g := graphs.New(n)
	inst := e.FullInstance()
	for _, v := range e.Violations(inst) {
		if len(v.Cands) == 2 {
			g.AddEdge(v.Cands[0], v.Cands[1])
		}
	}
	return g
}

// Exact solves the instantiation problem optimally by enumerating all
// matching instances (exponential; for validating the heuristic on
// small networks). limit caps enumeration as in sampling.EnumerateAll.
func Exact(e *constraints.Engine, probs []float64, approved, disapproved *bitset.Set,
	useLikelihood bool, limit int) (*bitset.Set, error) {

	instances, err := sampling.EnumerateAll(e, approved, disapproved, limit)
	if err != nil {
		return nil, err
	}
	if len(instances) == 0 {
		return e.NewInstance(), nil
	}
	full := e.FullInstance()
	best := instances[0]
	for _, inst := range instances[1:] {
		if better(best, inst, full, probs, useLikelihood) {
			best = inst
		}
	}
	return best.Clone(), nil
}
