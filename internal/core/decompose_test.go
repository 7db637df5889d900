package core

import (
	"math"
	"math/rand"
	"testing"

	"schemanet/internal/constraints"
	"schemanet/internal/datagen"
	"schemanet/internal/schema"
)

// buildTwoTriangles is the two-disconnected-triangles network (ten
// candidates, two constraint-connected components of five).
func buildTwoTriangles(t testing.TB) (*constraints.Engine, map[string]int) {
	t.Helper()
	b := schema.NewBuilder()
	idx := map[string]int{}
	for g := 0; g < 2; g++ {
		p := string(rune('A' + g))
		s1 := b.AddSchema(p+"EoverI", "productionDate")
		s2 := b.AddSchema(p+"BBC", "date")
		s3 := b.AddSchema(p+"DVDizzy", "releaseDate", "screenDate")
		b.Connect(s1, s2)
		b.Connect(s2, s3)
		b.Connect(s1, s3)
		base := schema.AttrID(g * 4)
		b.AddCorrespondence(base+0, base+1, 0.9)
		b.AddCorrespondence(base+1, base+2, 0.8)
		b.AddCorrespondence(base+0, base+2, 0.7)
		b.AddCorrespondence(base+1, base+3, 0.6)
		b.AddCorrespondence(base+0, base+3, 0.5)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		p := string(rune('A' + g))
		base := schema.AttrID(g * 4)
		idx[p+"c1"] = net.CandidateIndex(base+0, base+1)
		idx[p+"c2"] = net.CandidateIndex(base+1, base+2)
		idx[p+"c3"] = net.CandidateIndex(base+0, base+2)
		idx[p+"c4"] = net.CandidateIndex(base+1, base+3)
		idx[p+"c5"] = net.CandidateIndex(base+0, base+3)
	}
	return constraints.Default(net), idx
}

// TestAssertTouchesOnlyOwnComponent: asserting a candidate of one
// component must leave the other component's store object, sample set,
// and probabilities untouched — the O(component) cost contract.
func TestAssertTouchesOnlyOwnComponent(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	p := exactPMN(t, e, 1)
	if p.NumComponents() != 2 {
		t.Fatalf("components = %d, want 2", p.NumComponents())
	}
	otherK := p.ComponentOf(idx["Bc1"])
	otherStore := soleStore(t, p, otherK)
	otherSize := otherStore.Size()

	if err := p.Assert(idx["Ac2"], true); err != nil {
		t.Fatal(err)
	}
	if soleStore(t, p, otherK) != otherStore || otherStore.Size() != otherSize {
		t.Fatal("assertion in component A rebuilt component B's store")
	}
	for _, name := range []string{"Bc1", "Bc2", "Bc3", "Bc4", "Bc5"} {
		if got := p.Probability(idx[name]); math.Abs(got-0.5) > 1e-9 {
			t.Errorf("p(%s) = %v, want 0.5 (untouched component)", name, got)
		}
	}
	// The touched component behaves exactly like the single-triangle case.
	if got := p.Probability(idx["Ac2"]); got != 1 {
		t.Errorf("p(Ac2) = %v, want 1", got)
	}
	if got := p.Probability(idx["Ac4"]); got != 0 {
		t.Errorf("p(Ac4) = %v, want 0", got)
	}
	// H = 3 uncertain in A (at ½) + 5 uncertain in B (at ½).
	if got := p.Entropy(); math.Abs(got-8) > 1e-9 {
		t.Errorf("H = %v, want 8", got)
	}
}

// TestInformationGainComponentLocal: IG must be computable per
// component and match the definition H − H(C|c) computed over the whole
// network.
func TestInformationGainComponentLocal(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	p := exactPMN(t, e, 1)
	for name, c := range idx {
		ig := p.InformationGain(c)
		def := p.Entropy() - p.ConditionalEntropy(c)
		if math.Abs(ig-def) > 1e-9 {
			t.Errorf("IG(%s) = %v, definition gives %v", name, ig, def)
		}
	}
	// The two components are copies: IGs must mirror.
	for _, base := range []string{"c1", "c2", "c3", "c4", "c5"} {
		a, b := p.InformationGain(idx["A"+base]), p.InformationGain(idx["B"+base])
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("IG(A%s) = %v, IG(B%s) = %v; identical components must mirror", base, a, base, b)
		}
	}
}

// TestPMNRecoversFromEmptiedCompleteStore is the PMN half of the
// dead-end regression: a sampled (non-exact) PMN whose store completed
// (all 4 triangle instances < n_min) is then driven into contradictory
// approvals — c3 and c5 both map productionDate into DVDizzy, so no
// instance holds both. The piece backend recognizes that Ω is empty
// (c5 conflicts with the approved c3, so it is not live) instead of
// emptying a store and sampling for instances that do not exist: every
// unasserted candidate reads 0, the approved ones stay at 1, the
// uncertainty is 0, and further assertions keep working. A piece whose
// store is emptied by an approval refills instead (TestSampledPieceRefillsEmptiedStore).
func TestPMNRecoversFromEmptiedCompleteStore(t *testing.T) {
	e, idx := buildVideoNet(t)
	cfg := DefaultConfig()
	cfg.Samples = 100
	p := MustNew(e, cfg, rand.New(rand.NewSource(3)))
	for _, st := range p.UnitStores(0) {
		if !st.Complete() {
			t.Fatal("precondition: store must have completed")
		}
	}
	if err := p.Assert(idx["c3"], true); err != nil {
		t.Fatal(err)
	}
	if err := p.Assert(idx["c5"], true); err != nil {
		t.Fatal(err)
	}
	if p.Probability(idx["c3"]) != 1 || p.Probability(idx["c5"]) != 1 {
		t.Fatal("approved candidates must stay at probability 1")
	}
	for _, name := range []string{"c1", "c2", "c4"} {
		if got := p.Probability(idx[name]); got != 0 {
			t.Errorf("p(%s) = %v, want 0: no instance satisfies both approvals", name, got)
		}
	}
	if h := p.Entropy(); h != 0 {
		t.Errorf("H = %v, want 0", h)
	}
	// Further assertions keep working.
	if err := p.Assert(idx["c1"], false); err != nil {
		t.Fatal(err)
	}
}

// TestAssertBatchMatchesSequentialExact: under InferExact, batch-applying a
// feedback history yields the same probabilities as asserting one by
// one.
func TestAssertBatchMatchesSequentialExact(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	history := []Assertion{
		{Cand: idx["Ac2"], Approved: true},
		{Cand: idx["Bc1"], Approved: false},
		{Cand: idx["Ac5"], Approved: false},
		{Cand: idx["Bc4"], Approved: true},
	}
	seq := exactPMN(t, e, 1)
	for _, a := range history {
		if err := seq.Assert(a.Cand, a.Approved); err != nil {
			t.Fatal(err)
		}
	}
	batch := exactPMN(t, e, 1)
	if err := batch.AssertBatch(history); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < e.Network().NumCandidates(); c++ {
		if s, b := seq.Probability(c), batch.Probability(c); s != b {
			t.Fatalf("p(%d): sequential %v, batch %v", c, s, b)
		}
	}
	if s, b := seq.Entropy(), batch.Entropy(); math.Abs(s-b) > 1e-12 {
		t.Fatalf("H: sequential %v, batch %v", s, b)
	}
}

// TestAssertBatchAtMostOneRefillPerComponent: the whole point of the
// batch path — a history of many entries triggers at most one
// resampling round per touched component.
func TestAssertBatchAtMostOneRefillPerComponent(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	cfg := DefaultConfig()
	cfg.Samples = 100
	p := MustNew(e, cfg, rand.New(rand.NewSource(5)))
	// Disapprovals clear completeness, so every entry would refill on
	// the sequential path; both components are touched twice.
	history := []Assertion{
		{Cand: idx["Ac4"], Approved: false},
		{Cand: idx["Bc4"], Approved: false},
		{Cand: idx["Ac5"], Approved: false},
		{Cand: idx["Bc5"], Approved: false},
	}
	if err := p.AssertBatch(history); err != nil {
		t.Fatal(err)
	}
	if got := p.Resamples(); got > 2 {
		t.Fatalf("batch of 4 over 2 components did %d refills, want ≤ 2 (one per touched component)", got)
	}
	// Sequential reference: strictly more refills.
	q := MustNew(e, cfg, rand.New(rand.NewSource(5)))
	for _, a := range history {
		if err := q.Assert(a.Cand, a.Approved); err != nil {
			t.Fatal(err)
		}
	}
	if q.Resamples() <= p.Resamples() {
		t.Fatalf("sequential refills (%d) not above batch refills (%d); test premise broken",
			q.Resamples(), p.Resamples())
	}
}

// TestAssertBatchValidation: invalid batches are rejected atomically.
func TestAssertBatchValidation(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	p := exactPMN(t, e, 1)
	if err := p.Assert(idx["Ac1"], true); err != nil {
		t.Fatal(err)
	}
	h0 := p.Entropy()
	cases := map[string][]Assertion{
		"already asserted": {{Cand: idx["Ac2"], Approved: true}, {Cand: idx["Ac1"], Approved: true}},
		"duplicate":        {{Cand: idx["Bc1"], Approved: true}, {Cand: idx["Bc1"], Approved: false}},
		"out of range":     {{Cand: 99, Approved: true}},
	}
	for name, batch := range cases {
		if err := p.AssertBatch(batch); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if p.Feedback().Count() != 1 {
		t.Fatalf("rejected batches mutated feedback: count = %d, want 1", p.Feedback().Count())
	}
	if p.Entropy() != h0 {
		t.Fatalf("rejected batches changed entropy: %v -> %v", h0, p.Entropy())
	}
}

// TestNewWithHistoryMatchesAssertBatchExact: under InferExact, building
// the PMN under a history enumerates exactly the instance set that
// filtering the unconditioned enumeration with AssertBatch leaves, so
// every probability, the entropy and the feedback agree bit for bit —
// with no refill on either side.
func TestNewWithHistoryMatchesAssertBatchExact(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	history := []Assertion{
		{Cand: idx["Ac2"], Approved: true},
		{Cand: idx["Bc1"], Approved: false},
		{Cand: idx["Ac5"], Approved: false},
		{Cand: idx["Bc4"], Approved: true},
	}
	filtered := exactPMN(t, e, 1)
	if err := filtered.AssertBatch(history); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Inference = InferExact
	built, err := NewWithHistory(e, cfg, rand.New(rand.NewSource(1)), history)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < e.Network().NumCandidates(); c++ {
		if f, b := filtered.Probability(c), built.Probability(c); f != b {
			t.Fatalf("p(%d): filtered %v, built under history %v", c, f, b)
		}
	}
	if f, b := filtered.Entropy(), built.Entropy(); f != b {
		t.Fatalf("H: filtered %v, built under history %v", f, b)
	}
	if got := built.Feedback().History(); len(got) != len(history) {
		t.Fatalf("history length %d, want %d", len(got), len(history))
	}
	if built.Resamples() != 0 {
		t.Fatalf("construction under history counted %d resamples", built.Resamples())
	}
}

// TestNewWithHistoryValidation: an invalid initial history fails
// construction with AssertBatch's validation errors.
func TestNewWithHistoryValidation(t *testing.T) {
	e, idx := buildTwoTriangles(t)
	cases := map[string][]Assertion{
		"duplicate":    {{Cand: idx["Bc1"], Approved: true}, {Cand: idx["Bc1"], Approved: false}},
		"out of range": {{Cand: 99, Approved: true}},
	}
	for name, history := range cases {
		if _, err := NewWithHistory(e, DefaultConfig(), rand.New(rand.NewSource(1)), history); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestDecomposedSampledAgreesWithExactOnRandomNet: on a generated
// multi-component network whose components are small enough to
// complete, the decomposed sampled probabilities equal the exact
// probabilities (Equation 1).
func TestDecomposedSampledAgreesWithExactOnRandomNet(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d, err := datagen.SyntheticNetwork(datagen.Scale(datagen.BP(), 0.2),
		datagen.DefaultSyntheticOpts(40), rng)
	if err != nil {
		t.Fatal(err)
	}
	e := constraints.Default(d.Network)
	if e.Components().Trivial() {
		t.Skip("generated network has one component")
	}
	exact := MustNew(e, Config{Inference: InferExact, Samples: 100, Sampler: DefaultConfig().Sampler}, rand.New(rand.NewSource(1)))
	cfg := DefaultConfig()
	cfg.Samples = 600
	cfg.Sampler.NMin = 400
	sampled := MustNew(e, cfg, rand.New(rand.NewSource(2)))
	for c := 0; c < d.Network.NumCandidates(); c++ {
		k := sampled.ComponentOf(c)
		if u := sampled.comps[k].pieceFor(c); u != nil && !u.store.Complete() {
			continue // piece too large to complete; estimate, not exact
		}
		if math.Abs(exact.Probability(c)-sampled.Probability(c)) > 1e-9 {
			t.Errorf("p(%d): exact %v, decomposed complete-store %v", c,
				exact.Probability(c), sampled.Probability(c))
		}
	}
}
