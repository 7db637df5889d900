package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"schemanet/internal/constraints"
	"schemanet/internal/datagen"
	"schemanet/internal/sampling"
	"schemanet/internal/schema"
)

// buildVideoNet reconstructs the §II-A example (see constraints tests);
// its four matching instances are {c1,c2,c3}, {c1,c4,c5}, {c2,c5},
// {c3,c4}, so all five candidates start at probability ½.
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

func exactPMN(t testing.TB, e *constraints.Engine, seed int64) *PMN {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Inference = InferExact
	return MustNew(e, cfg, rand.New(rand.NewSource(seed)))
}

func TestFeedbackBasics(t *testing.T) {
	f := NewFeedback(10)
	if err := f.Approve(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Disapprove(5); err != nil {
		t.Fatal(err)
	}
	if !f.IsApproved(3) || !f.IsDisapproved(5) {
		t.Fatal("assertions not recorded")
	}
	if f.IsAsserted(4) {
		t.Fatal("unasserted candidate reported asserted")
	}
	if f.Count() != 2 {
		t.Fatalf("Count = %d, want 2", f.Count())
	}
	if got := f.Effort(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("Effort = %v, want 0.2", got)
	}
	if err := f.Approve(3); err == nil {
		t.Fatal("re-asserting must fail")
	}
	if err := f.Disapprove(3); err == nil {
		t.Fatal("contradicting assertion must fail")
	}
	h := f.History()
	if len(h) != 2 || h[0].Cand != 3 || !h[0].Approved || h[1].Cand != 5 || h[1].Approved {
		t.Fatalf("History = %v", h)
	}
	clone := f.Clone()
	clone.Approve(7)
	if f.IsAsserted(7) {
		t.Fatal("Clone not independent")
	}
}

func TestBinaryEntropy(t *testing.T) {
	if got := BinaryEntropy(0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("H(0.5) = %v, want 1", got)
	}
	for _, p := range []float64{0, 1, -0.1, 1.1} {
		if got := BinaryEntropy(p); got != 0 {
			t.Errorf("H(%v) = %v, want 0", p, got)
		}
	}
	// Symmetry.
	if math.Abs(BinaryEntropy(0.3)-BinaryEntropy(0.7)) > 1e-12 {
		t.Error("binary entropy must be symmetric around 0.5")
	}
}

func TestInitialProbabilitiesExactVideo(t *testing.T) {
	e, idx := buildVideoNet(t)
	p := exactPMN(t, e, 1)
	for name, c := range idx {
		if got := p.Probability(c); math.Abs(got-0.5) > 1e-9 {
			t.Errorf("p(%s) = %v, want 0.5", name, got)
		}
	}
	// Example 1 arithmetic: five ½-probability candidates give H = 5
	// over the four true instances (the paper's informal count of two
	// instances gives 4; Definition 1 admits four instances, see
	// DESIGN.md).
	if got := p.Entropy(); math.Abs(got-5) > 1e-9 {
		t.Errorf("H = %v, want 5", got)
	}
}

func TestAssertUpdatesProbabilities(t *testing.T) {
	e, idx := buildVideoNet(t)
	p := exactPMN(t, e, 1)
	if err := p.Assert(idx["c2"], true); err != nil {
		t.Fatal(err)
	}
	// Remaining instances: {c1,c2,c3} and {c2,c5}.
	if got := p.Probability(idx["c2"]); got != 1 {
		t.Errorf("p(c2) = %v, want 1", got)
	}
	if got := p.Probability(idx["c4"]); got != 0 {
		t.Errorf("p(c4) = %v, want 0", got)
	}
	if got := p.Probability(idx["c1"]); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p(c1) = %v, want 0.5", got)
	}
	// H = 3 candidates at ½ (c1, c3, c5)... c3 appears in {c1,c2,c3}
	// only → ½; c5 in {c2,c5} only → ½; c1 in {c1,c2,c3} → ½.
	if got := p.Entropy(); math.Abs(got-3) > 1e-9 {
		t.Errorf("H after approve c2 = %v, want 3", got)
	}
}

func TestAssertRejectsDouble(t *testing.T) {
	e, idx := buildVideoNet(t)
	p := exactPMN(t, e, 1)
	if err := p.Assert(idx["c1"], true); err != nil {
		t.Fatal(err)
	}
	if err := p.Assert(idx["c1"], false); err == nil {
		t.Fatal("double assert must fail")
	}
}

func TestDisapprovalReenumeratesExact(t *testing.T) {
	e, idx := buildVideoNet(t)
	p := exactPMN(t, e, 1)
	if err := p.Assert(idx["c1"], false); err != nil {
		t.Fatal(err)
	}
	// After disapproving c1 the instance set is re-enumerated: four
	// 2-member instances; every remaining candidate at ½.
	if got := instanceCount(t, p, 0); got != 4 {
		t.Fatalf("|Ω| = %d, want 4 (re-enumeration after disapproval)", got)
	}
	for _, name := range []string{"c2", "c3", "c4", "c5"} {
		if got := p.Probability(idx[name]); math.Abs(got-0.5) > 1e-9 {
			t.Errorf("p(%s) = %v, want 0.5", name, got)
		}
	}
}

func TestUncertainExcludesAsserted(t *testing.T) {
	e, idx := buildVideoNet(t)
	p := exactPMN(t, e, 1)
	if got := len(p.Uncertain()); got != 5 {
		t.Fatalf("uncertain = %d, want 5", got)
	}
	p.Assert(idx["c2"], true)
	u := p.Uncertain()
	for _, c := range u {
		if c == idx["c2"] || c == idx["c4"] {
			t.Errorf("certain candidate %d in uncertain set", c)
		}
	}
	if len(u) != 3 {
		t.Fatalf("uncertain after approval = %d, want 3", len(u))
	}
}

// TestInformationGainExample1 checks the central claim of Example 1:
// asserting c1 (present in both triangle instances) yields less
// information than asserting c2.
func TestInformationGainExample1(t *testing.T) {
	e, idx := buildVideoNet(t)
	p := exactPMN(t, e, 1)
	igC1 := p.InformationGain(idx["c1"])
	igC2 := p.InformationGain(idx["c2"])
	if igC1 >= igC2 {
		t.Fatalf("IG(c1) = %v should be < IG(c2) = %v", igC1, igC2)
	}
	// Every IG is within [0, H].
	h := p.Entropy()
	for name, c := range idx {
		ig := p.InformationGain(c)
		if ig < 0 || ig > h {
			t.Errorf("IG(%s) = %v outside [0, %v]", name, ig, h)
		}
	}
}

func TestInformationGainZeroForCertain(t *testing.T) {
	e, idx := buildVideoNet(t)
	p := exactPMN(t, e, 1)
	p.Assert(idx["c2"], true)
	if got := p.InformationGain(idx["c2"]); got != 0 {
		t.Errorf("IG of asserted candidate = %v, want 0", got)
	}
	if got := p.InformationGain(idx["c4"]); got != 0 {
		t.Errorf("IG of certain candidate = %v, want 0", got)
	}
}

func TestInformationGainsVectorAgrees(t *testing.T) {
	e, idx := buildVideoNet(t)
	p := exactPMN(t, e, 1)
	igs := p.InformationGains()
	for _, c := range idx {
		if math.Abs(igs[c]-p.InformationGain(c)) > 1e-9 {
			t.Errorf("InformationGains[%d] = %v, InformationGain = %v",
				c, igs[c], p.InformationGain(c))
		}
	}
}

func TestConditionalEntropyDecomposition(t *testing.T) {
	// With exact probabilities over all instances, H(C|c) must equal
	// p_c·H+ + (1−p_c)·H− computed from first principles on the video
	// network: conditioning on c2 leaves {c1,c2,c3}+{c2,c5} (H+ = 3 at
	// ½ each... actually each remaining candidate is in exactly one of
	// two instances → ½ → H+ = 3) and {c1,c4,c5}+{c3,c4} (H− = 3).
	e, idx := buildVideoNet(t)
	p := exactPMN(t, e, 1)
	got := p.ConditionalEntropy(idx["c2"])
	if math.Abs(got-3) > 1e-9 {
		t.Fatalf("H(C|c2) = %v, want 3", got)
	}
	if ig := p.InformationGain(idx["c2"]); math.Abs(ig-2) > 1e-9 {
		t.Fatalf("IG(c2) = %v, want 2", ig)
	}
}

func TestSampledPMNApproximatesExact(t *testing.T) {
	e, _ := buildVideoNet(t)
	exact := exactPMN(t, e, 1)
	cfg := DefaultConfig()
	cfg.Samples = 400
	sampled := MustNew(e, cfg, rand.New(rand.NewSource(2)))
	for c := 0; c < e.Network().NumCandidates(); c++ {
		if math.Abs(exact.Probability(c)-sampled.Probability(c)) > 1e-9 {
			t.Errorf("p(%d): exact %v vs sampled %v (store should cover all 4 instances)",
				c, exact.Probability(c), sampled.Probability(c))
		}
	}
}

func TestSmallNetworkMarksComplete(t *testing.T) {
	// The video network has 4 instances < NMin, so after two sampling
	// rounds the store must be marked complete (Ω* = Ω, §III-B).
	e, _ := buildVideoNet(t)
	cfg := DefaultConfig()
	cfg.Samples = 50
	p := MustNew(e, cfg, rand.New(rand.NewSource(3)))
	stores := p.UnitStores(0)
	if len(stores) == 0 {
		t.Fatal("no piece store: the video net's five candidates conflict")
	}
	for _, st := range stores {
		if !st.Complete() {
			t.Fatal("store not marked complete despite exhausting all instances")
		}
	}
}

type scriptedOracle map[[2]schema.AttrID]bool

func (o scriptedOracle) Assert(c schema.Correspondence) bool { return o[c.Pair()] }

func TestReconcileBudgetGoal(t *testing.T) {
	e, idx := buildVideoNet(t)
	p := exactPMN(t, e, 1)
	net := e.Network()
	// Oracle says the {c1,c2,c3} triangle is correct.
	o := scriptedOracle{}
	o[net.Candidate(idx["c1"]).Pair()] = true
	o[net.Candidate(idx["c2"]).Pair()] = true
	o[net.Candidate(idx["c3"]).Pair()] = true

	rng := rand.New(rand.NewSource(4))
	var steps []StepInfo
	n := Reconcile(p, o, RandomStrategy{}, BudgetGoal(2), rng, func(s StepInfo) {
		steps = append(steps, s)
	})
	if n != 2 {
		t.Fatalf("steps = %d, want 2 (budget)", n)
	}
	if len(steps) != 2 || steps[0].Step != 1 || steps[1].Step != 2 {
		t.Fatalf("observer steps wrong: %+v", steps)
	}
	if p.Feedback().Count() != 2 {
		t.Fatalf("feedback count = %d, want 2", p.Feedback().Count())
	}
}

func TestReconcileFullDrivesUncertaintyToZero(t *testing.T) {
	e, idx := buildVideoNet(t)
	net := e.Network()
	o := scriptedOracle{}
	o[net.Candidate(idx["c1"]).Pair()] = true
	o[net.Candidate(idx["c2"]).Pair()] = true
	o[net.Candidate(idx["c3"]).Pair()] = true

	for _, strat := range []Strategy{RandomStrategy{}, InfoGainStrategy{}, LeastCertainStrategy{}, ByConfidenceStrategy{}} {
		p := exactPMN(t, e, 5)
		rng := rand.New(rand.NewSource(6))
		Reconcile(p, o, strat, FullGoal(), rng, nil)
		if got := p.Entropy(); got != 0 {
			t.Errorf("%s: final entropy = %v, want 0", strat.Name(), got)
		}
		if len(p.Uncertain()) != 0 {
			t.Errorf("%s: uncertain candidates remain", strat.Name())
		}
		// The surviving instance set must be exactly the oracle's
		// triangle.
		for name, c := range idx {
			want := o[net.Candidate(c).Pair()]
			if got := p.Probability(c) == 1; got != want {
				t.Errorf("%s: final p(%s) = %v, oracle says %v",
					strat.Name(), name, p.Probability(c), want)
			}
		}
	}
}

func TestReconcileUncertaintyGoal(t *testing.T) {
	e, idx := buildVideoNet(t)
	net := e.Network()
	o := scriptedOracle{}
	o[net.Candidate(idx["c1"]).Pair()] = true
	o[net.Candidate(idx["c2"]).Pair()] = true
	o[net.Candidate(idx["c3"]).Pair()] = true
	p := exactPMN(t, e, 7)
	h0 := p.Entropy()
	rng := rand.New(rand.NewSource(8))
	Reconcile(p, o, InfoGainStrategy{}, UncertaintyGoal(h0/2), rng, nil)
	if p.Entropy() > h0/2 {
		t.Fatalf("entropy %v did not reach goal %v", p.Entropy(), h0/2)
	}
}

func TestInfoGainNeedsFewerStepsThanRandomOnAverage(t *testing.T) {
	// The headline claim of §VI-C in miniature: to reach zero
	// uncertainty on the video network, the IG strategy should on
	// average need no more assertions than random.
	e, idx := buildVideoNet(t)
	net := e.Network()
	o := scriptedOracle{}
	o[net.Candidate(idx["c1"]).Pair()] = true
	o[net.Candidate(idx["c2"]).Pair()] = true
	o[net.Candidate(idx["c3"]).Pair()] = true

	avg := func(strat Strategy) float64 {
		total := 0
		const runs = 40
		for i := 0; i < runs; i++ {
			p := exactPMN(t, e, int64(100+i))
			rng := rand.New(rand.NewSource(int64(200 + i)))
			total += Reconcile(p, o, strat, UncertaintyGoal(1e-12), rng, nil)
		}
		return float64(total) / runs
	}
	rnd := avg(RandomStrategy{})
	ig := avg(InfoGainStrategy{})
	t.Logf("avg steps to zero uncertainty: random=%.2f info-gain=%.2f", rnd, ig)
	if ig > rnd+0.25 {
		t.Fatalf("info-gain (%.2f) should not need more steps than random (%.2f)", ig, rnd)
	}
}

func TestStrategiesReturnFalseWhenCertain(t *testing.T) {
	e, idx := buildVideoNet(t)
	net := e.Network()
	o := scriptedOracle{}
	o[net.Candidate(idx["c1"]).Pair()] = true
	o[net.Candidate(idx["c2"]).Pair()] = true
	o[net.Candidate(idx["c3"]).Pair()] = true
	p := exactPMN(t, e, 9)
	rng := rand.New(rand.NewSource(10))
	Reconcile(p, o, RandomStrategy{}, FullGoal(), rng, nil)
	for _, s := range []Strategy{RandomStrategy{}, InfoGainStrategy{}, LeastCertainStrategy{}, ByConfidenceStrategy{}} {
		if _, ok := s.Next(p, rng); ok {
			t.Errorf("%s returned a candidate from a fully certain network", s.Name())
		}
	}
}

func TestPMNSampledFallbackWhenExactOverflows(t *testing.T) {
	// The two-star fixture has 8 free candidates but 15 instances, so a
	// budget of 9 passes the free-count attempt gate and the enumeration
	// itself overflows — the construction-time overflow→sampled fallback
	// actually runs (on the video net it could not: any budget small
	// enough to overflow its 4 instances is below the 5-candidate gate).
	e, _ := buildTwoStarsNet(t)
	cfg := DefaultConfig()
	cfg.Inference = InferAuto
	cfg.ExactBudget = 9
	cfg.Samples = 200
	p := MustNew(e, cfg, rand.New(rand.NewSource(11)))
	if got := p.ComponentInference(0); got != InferSampled {
		t.Fatalf("over-budget component serves %v, want sampled fallback", got)
	}
	stores := p.UnitStores(0)
	if len(stores) == 0 {
		t.Fatal("fallback sampling produced no piece store")
	}
	for _, st := range stores {
		if st.Size() == 0 {
			t.Fatal("fallback sampling produced no instances")
		}
	}
	for c := 0; c < e.Network().NumCandidates(); c++ {
		if pr := p.Probability(c); pr < 0 || pr > 1 {
			t.Fatalf("p(%d) = %v out of range", c, pr)
		}
	}
	// The gate variant: a component whose free count is at or above the
	// budget is never probed at construction and samples as well.
	e2, _ := buildVideoNet(t)
	cfg.ExactBudget = 2 // free 5 ≥ budget 2 → no attempt, sampled
	p2 := MustNew(e2, cfg, rand.New(rand.NewSource(11)))
	if got := p2.ComponentInference(0); got != InferSampled {
		t.Fatalf("gated component serves %v, want sampled", got)
	}
}

// TestPMNForcedExactOverflowErrors: unlike Auto's silent fallback, a
// forced exact configuration with a too-small budget must fail loudly
// with the classifiable sentinel — the caller asked for exactness.
func TestPMNForcedExactOverflowErrors(t *testing.T) {
	e, _ := buildVideoNet(t)
	cfg := DefaultConfig()
	cfg.Inference = InferExact
	cfg.ExactBudget = 2
	_, err := New(e, cfg, rand.New(rand.NewSource(11)))
	if !errors.Is(err, ErrExactBudgetExceeded) {
		t.Fatalf("err = %v, want ErrExactBudgetExceeded", err)
	}
	// Budget 0 under forced exact means unlimited: construction succeeds.
	cfg.ExactBudget = 0
	p := MustNew(e, cfg, rand.New(rand.NewSource(11)))
	if got := instanceCount(t, p, 0); got != 4 {
		t.Fatalf("unbounded exact |Ω| = %d, want 4", got)
	}
}

// TestContradictoryApprovalsGraceful injects the failure the paper
// assumes away (§II-B: assertions are always right): an expert approves
// two correspondences that violate a constraint together, so no
// matching instance exists. The network must degrade deterministically:
// empty instance set, probabilities driven purely by feedback, zero
// entropy — and never panic.
func TestContradictoryApprovalsGraceful(t *testing.T) {
	e, idx := buildVideoNet(t)
	p := exactPMN(t, e, 1)
	// c3 and c5 share productionDate and both map it into DVDizzy.
	if err := p.Assert(idx["c3"], true); err != nil {
		t.Fatal(err)
	}
	if err := p.Assert(idx["c5"], true); err != nil {
		t.Fatal(err)
	}
	if got := instanceCount(t, p, 0); got != 0 {
		t.Fatalf("|Ω| = %d, want 0 (no instance satisfies both)", got)
	}
	if p.Probability(idx["c3"]) != 1 || p.Probability(idx["c5"]) != 1 {
		t.Fatal("approved candidates must stay at probability 1")
	}
	for _, other := range []string{"c1", "c2", "c4"} {
		if got := p.Probability(idx[other]); got != 0 {
			t.Errorf("p(%s) = %v, want 0 under empty instance set", other, got)
		}
	}
	if p.Entropy() != 0 {
		t.Fatalf("entropy = %v, want 0", p.Entropy())
	}
	// Further assertions still work.
	if err := p.Assert(idx["c1"], true); err != nil {
		t.Fatal(err)
	}
}

// TestResamplingKeepsStoreUsable drives a sampled (non-exact) PMN
// through a full reconciliation on a generated network and checks the
// §III-B refill loop: the store never silently collapses while
// uncertain candidates remain, and the final state is fully certain.
func TestResamplingKeepsStoreUsable(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	d, err := datagen.SyntheticNetwork(datagen.Scale(datagen.BP(), 0.25),
		datagen.DefaultSyntheticOpts(60), rng)
	if err != nil {
		t.Fatal(err)
	}
	e := constraints.Default(d.Network)
	cfg := DefaultConfig()
	cfg.Samples = 150
	cfg.Sampler.NMin = 60
	p := MustNew(e, cfg, rand.New(rand.NewSource(56)))

	o := scriptedOracle{}
	for i := 0; i < d.Network.NumCandidates(); i++ {
		c := d.Network.Candidate(i)
		o[c.Pair()] = d.GroundTruth.ContainsCorrespondence(c)
	}
	steps := Reconcile(p, o, InfoGainStrategy{}, FullGoal(),
		rand.New(rand.NewSource(57)), func(s StepInfo) {
			// The invariant is per unit: while a unit has uncertain
			// members, its store must hold instances.
			for _, c := range p.Uncertain() {
				u := p.comps[p.ComponentOf(c)].pieceFor(c)
				if u == nil || u.store.Size() == 0 {
					t.Fatalf("step %d: candidate %d uncertain but its unit store is missing or empty", s.Step, c)
				}
			}
		})
	if steps != d.Network.NumCandidates() {
		t.Fatalf("reconciliation made %d steps, want %d (all candidates)",
			steps, d.Network.NumCandidates())
	}
	if p.Entropy() != 0 {
		t.Fatalf("final entropy %v, want 0", p.Entropy())
	}
	// Final probabilities agree with the oracle on every candidate.
	for i := 0; i < d.Network.NumCandidates(); i++ {
		want := 0.0
		if o[d.Network.Candidate(i).Pair()] {
			want = 1
		}
		if got := p.Probability(i); got != want {
			t.Fatalf("final p(%d) = %v, oracle says %v", i, got, want)
		}
	}
}

func TestEntropyMatchesStoreProbabilities(t *testing.T) {
	e, _ := buildVideoNet(t)
	p := exactPMN(t, e, 12)
	manual := 0.0
	for _, pr := range p.Probabilities() {
		manual += BinaryEntropy(pr)
	}
	if math.Abs(manual-p.Entropy()) > 1e-12 {
		t.Fatalf("Entropy() = %v, manual sum = %v", p.Entropy(), manual)
	}
}

// TestInformationGainsWorkersAgree: the sharded ranking pass must be
// bit-identical to the sequential one regardless of worker count (on a
// network large enough that the chunk clamp cannot reduce the pass to
// one worker). Single-CPU machines would otherwise never execute the
// goroutine branch under test.
func TestInformationGainsWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d, err := datagen.SyntheticNetwork(datagen.Profile{
		Name: "workers", Domain: datagen.BusinessPartner(),
		NumSchemas: 4, MinAttrs: 10, MaxAttrs: 14, PoolFactor: 1.3,
		SynonymProb: 0.2, AbbrevProb: 0.15, EdgeProb: 1,
	}, datagen.SyntheticOpts{
		TargetCount: 96, Precision: 0.6, ConflictBias: 0.7, StrictCount: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	e := constraints.Default(d.Network)

	gains := make(map[int][]float64)
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		p := MustNew(e, cfg, rand.New(rand.NewSource(23)))
		gains[workers] = p.InformationGains()
	}
	if len(gains[1]) != len(gains[4]) {
		t.Fatalf("gain vector lengths differ: %d vs %d", len(gains[1]), len(gains[4]))
	}
	nonzero := 0
	for c := range gains[1] {
		if gains[1][c] != gains[4][c] {
			t.Errorf("cand %d: workers=1 gain %v, workers=4 gain %v", c, gains[1][c], gains[4][c])
		}
		if gains[1][c] > 0 {
			nonzero++
		}
	}
	// Guard the guard: the network must be big and uncertain enough that
	// the chunk clamp leaves more than one worker active (igChunk-sized
	// chunks) and the comparison is not vacuous.
	if nonzero < 2*igChunk {
		t.Fatalf("only %d candidates with positive gain; network too certain for a meaningful multi-worker test", nonzero)
	}
}

// BudgetGoal stops after k assertions (the limited effort budget of
// Problem 1).
func BudgetGoal(k int) Goal {
	return func(_ *PMN, step int) bool { return step >= k }
}

// UncertaintyGoal stops once the network uncertainty drops to h or
// below.
func UncertaintyGoal(h float64) Goal {
	return func(p *PMN, _ int) bool { return p.Entropy() <= h }
}

// soleStore returns the store of component k, failing unless exactly
// one piece store serves the component.
func soleStore(t testing.TB, p *PMN, k int) *sampling.Store {
	t.Helper()
	stores := p.UnitStores(k)
	if len(stores) != 1 {
		t.Fatalf("component %d is served by %d stores, want 1", k, len(stores))
	}
	return stores[0]
}

// instanceCount returns |Ω_k| of a component whose pieces are all
// enumerated: the product of its piece store sizes (instances multiply
// across independent pieces), or 0 when its approvals contradict each
// other.
func instanceCount(t testing.TB, p *PMN, k int) int {
	t.Helper()
	inf := p.comps[k]
	if inf.contradicted {
		return 0
	}
	n := 1
	for _, pc := range inf.pieces {
		if !pc.exact {
			t.Fatalf("component %d: piece %v is not enumerated", k, pc.members)
		}
		n *= pc.store.Size()
	}
	return n
}
