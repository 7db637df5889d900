package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/sampling"
	"schemanet/internal/schema"
)

// buildTwoStarsNet builds the promotion-overflow fixture: two one-to-one
// "stars" — a0 matched to b1..b4 (mutually conflicting) and c0 matched
// to d1..d4 — joined into ONE constraint-connected component by a
// mutual-exclusion pair on (b1, d1). The instance space is every
// cross-star pair except the excluded one: 4·4 − 1 = 15 instances over
// 8 candidates, so the instance count exceeds the free-candidate count —
// the shape that makes a budgeted promotion attempt overflow.
func buildTwoStarsNet(t testing.TB) (*constraints.Engine, map[string]int) {
	t.Helper()
	b := schema.NewBuilder()
	s := b.AddSchema("S", "a0")
	tt := b.AddSchema("T", "b1", "b2", "b3", "b4")
	u := b.AddSchema("U", "c0")
	v := b.AddSchema("V", "d1", "d2", "d3", "d4")
	b.Connect(s, tt)
	b.Connect(u, v)
	for i := 1; i <= 4; i++ {
		b.AddCorrespondence(0, schema.AttrID(i), 0.5+0.1*float64(i))   // a0 ↔ bi
		b.AddCorrespondence(5, schema.AttrID(5+i), 0.5+0.1*float64(i)) // c0 ↔ di
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i := 1; i <= 4; i++ {
		idx["ab"+string(rune('0'+i))] = net.CandidateIndex(0, schema.AttrID(i))
		idx["cd"+string(rune('0'+i))] = net.CandidateIndex(5, schema.AttrID(5+i))
	}
	e := constraints.NewEngine(net,
		constraints.NewOneToOne(net),
		constraints.NewCycle(net, constraints.DefaultMaxCycleLen),
		constraints.NewMutualExclusion(net, [][2]schema.AttrID{{1, 6}})) // b1 ⊻ d1
	return e, idx
}

// feedbackOf extracts the PMN's global feedback masks for a reference
// enumeration.
func feedbackOf(p *PMN) (approved, disapproved *bitset.Set) {
	return p.Feedback().Approved(), p.Feedback().Disapproved()
}

// assertExactMatchesReference compares every candidate probability of p
// bit-for-bit against a from-scratch ExactProbabilities enumeration
// under p's accumulated feedback, with the assertion overrides applied
// (asserted candidates are pinned to 1/0 in P±, §II-B).
func assertExactMatchesReference(t *testing.T, p *PMN, e *constraints.Engine, step string) {
	t.Helper()
	approved, disapproved := feedbackOf(p)
	want, _, err := sampling.ExactProbabilities(e, approved, disapproved, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := range want {
		w := want[c]
		if approved.Has(c) {
			w = 1
		} else if disapproved.Has(c) {
			w = 0
		}
		if got := p.Probability(c); got != w {
			t.Fatalf("%s: p(%d) = %v, ExactProbabilities says %v", step, c, got, w)
		}
	}
}

// TestExactInferenceMatchesExactProbabilitiesEveryAssertion is the
// tentpole differential guarantee: a forced-exact PMN — whose per-
// component instance lists are maintained by incremental filtering,
// never re-enumerated — stays bit-identical to the from-scratch
// Equation 1 enumeration after EVERY assertion of a full
// reconciliation, on a multi-component network, for both assertion
// orders' worth of approvals and disapprovals.
func TestExactInferenceMatchesExactProbabilitiesEveryAssertion(t *testing.T) {
	e, _ := buildTwoTriangles(t)
	p := exactPMN(t, e, 1)
	n := e.Network().NumCandidates()
	// The A triangle is "true": approve its triangle, disapprove the
	// rest; B mirrored with the opposite pattern for coverage.
	truth := map[int]bool{}
	for c := 0; c < n; c++ {
		truth[c] = c%2 == 0
	}
	assertExactMatchesReference(t, p, e, "initial")
	for c := 0; c < n; c++ {
		if err := p.Assert(c, truth[c]); err != nil {
			t.Fatal(err)
		}
		assertExactMatchesReference(t, p, e, e.Network().DescribeCandidate(c))
	}
	if p.Resamples() != 0 {
		t.Fatalf("exact inference did %d sampling refills, want 0", p.Resamples())
	}
}

// TestAutoServesSmallComponentsExactly: under InferAuto with the
// default budget, every piece of the tiny video components enumerates
// at construction — noise-free probabilities, zero sampling work.
func TestAutoServesSmallComponentsExactly(t *testing.T) {
	e, _ := buildTwoTriangles(t)
	cfg := DefaultConfig()
	cfg.Inference = InferAuto
	p := MustNew(e, cfg, rand.New(rand.NewSource(3)))
	for k := 0; k < p.NumComponents(); k++ {
		if got := p.ComponentInference(k); got != InferExact {
			t.Fatalf("component %d serves %v, want exact under auto", k, got)
		}
		if n, x := p.PieceCounts(k); n == 0 || x != n {
			t.Fatalf("component %d: %d of %d pieces exact, want all", k, x, n)
		}
	}
	// A full reconciliation never samples.
	for c := 0; c < e.Network().NumCandidates(); c++ {
		if err := p.Assert(c, c%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if p.Resamples() != 0 {
		t.Fatalf("auto on all-exact components did %d refills, want 0", p.Resamples())
	}
	assertExactMatchesReference(t, p, e, "final")
}

// TestAutoIdenticalToSampledWhileUnpromoted: a component the budget
// cannot cover behaves BIT-IDENTICALLY to a pure sampled configuration
// — mode probes consume no randomness, so the sampler streams align —
// which is the strong form of "Auto ≡ Sampled within statistical
// tolerance on large components".
func TestAutoIdenticalToSampledWhileUnpromoted(t *testing.T) {
	e, idx := buildTwoStarsNet(t)
	mk := func(mode InferenceMode) *PMN {
		cfg := DefaultConfig()
		cfg.Samples = 60
		cfg.Sampler.NMin = 10 // stay a live sampling store (15 instances > nmin)
		cfg.Inference = mode
		cfg.ExactBudget = 9 // 15 instances > 9 → auto stays sampled
		return MustNew(e, cfg, rand.New(rand.NewSource(7)))
	}
	auto, sampled := mk(InferAuto), mk(InferSampled)
	if got := auto.ComponentInference(0); got != InferSampled {
		t.Fatalf("auto over budget serves %v, want sampled", got)
	}
	n := e.Network().NumCandidates()
	for c := 0; c < n; c++ {
		if a, s := auto.Probability(c), sampled.Probability(c); a != s {
			t.Fatalf("initial p(%d): auto %v != sampled %v", c, a, s)
		}
	}
	// One disapproval each: the conditioned space (3·4−1 = 11 instances)
	// still overflows the budget, so auto's promotion attempt fails and
	// the streams must stay aligned afterwards too. (An approval would
	// collapse the space to 3 instances and legitimately promote.)
	if err := auto.Assert(idx["ab4"], false); err != nil {
		t.Fatal(err)
	}
	if err := sampled.Assert(idx["ab4"], false); err != nil {
		t.Fatal(err)
	}
	if got := auto.ComponentInference(0); got != InferSampled {
		t.Fatalf("auto promoted despite over-budget space (serves %v)", got)
	}
	for c := 0; c < n; c++ {
		if a, s := auto.Probability(c), sampled.Probability(c); a != s {
			t.Fatalf("post-assert p(%d): auto %v != sampled %v", c, a, s)
		}
	}
}

// buildBipartiteBlocks builds a two-schema network of independent
// complete bipartite blocks: block i joins its own m_i attributes of S
// to its own n_i attributes of T with every correspondence, so the
// one-to-one constraint makes each block one component whose instances
// are its maximal matchings (min(m,n)!·C(max,min) of them) and no
// constraint couples different blocks. It returns the engine, each
// block's S and T attribute ids, and the candidates of the diagonal
// a_j ↔ t_j matching of every block as the ground truth.
func buildBipartiteBlocks(t testing.TB, blocks [][2]int) (*constraints.Engine, [][2][]schema.AttrID, map[int]bool) {
	t.Helper()
	var sNames, tNames []string
	for i, bl := range blocks {
		for j := 0; j < bl[0]; j++ {
			sNames = append(sNames, fmt.Sprintf("s%d_%d", i, j))
		}
		for j := 0; j < bl[1]; j++ {
			tNames = append(tNames, fmt.Sprintf("t%d_%d", i, j))
		}
	}
	b := schema.NewBuilder()
	sID := b.AddSchema("S", sNames...)
	tID := b.AddSchema("T", tNames...)
	b.Connect(sID, tID)
	attrs := make([][2][]schema.AttrID, len(blocks))
	sBase, tBase := 0, len(sNames)
	for i, bl := range blocks {
		for j := 0; j < bl[0]; j++ {
			attrs[i][0] = append(attrs[i][0], schema.AttrID(sBase+j))
		}
		for j := 0; j < bl[1]; j++ {
			attrs[i][1] = append(attrs[i][1], schema.AttrID(tBase+j))
		}
		for x, a := range attrs[i][0] {
			for y, c := range attrs[i][1] {
				b.AddCorrespondence(a, c, 0.3+0.1*float64((x+2*y)%7))
			}
		}
		sBase += bl[0]
		tBase += bl[1]
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int]bool{}
	for _, at := range attrs {
		for j := 0; j < len(at[0]) && j < len(at[1]); j++ {
			truth[net.CandidateIndex(at[0][j], at[1][j])] = true
		}
	}
	return constraints.Default(net), attrs, truth
}

// TestAutoStreamsAlignWithSampledAcrossComponents generalizes the test
// above to a many-component network where auto serves some components
// exactly: every component auto still samples must match a pure sampled
// run bit for bit — initially, after assertions, and after an
// AddCandidates-style merge rebuilds a component from its content-
// derived stream. Exact components sit ahead of sampled ones in
// component order, so this pins that a sampler seed is drawn for every
// component whether or not the component ever builds its stream.
func TestAutoStreamsAlignWithSampledAcrossComponents(t *testing.T) {
	// 1×1 and 1×2 blocks enumerate within budget 3; the 4×4 (24
	// matchings) and 5×5 (120) blocks sample, and with n_min 10 their
	// stores hold a stream-dependent subset of the matchings.
	blocks := [][2]int{{1, 1}, {4, 4}, {1, 2}, {5, 5}, {1, 1}, {4, 4}, {1, 2}, {5, 5}, {4, 4}}
	base, attrs, truth := buildBipartiteBlocks(t, blocks)
	mk := func(mode InferenceMode) (*PMN, *constraints.Engine) {
		e := constraints.Default(base.Network().Clone())
		cfg := DefaultConfig()
		cfg.Samples = 12
		cfg.Sampler.NMin = 10
		cfg.Inference = mode
		cfg.ExactBudget = 3
		p := MustNew(e, cfg, rand.New(rand.NewSource(7)))
		p.SetTopoSeed(7)
		return p, e
	}
	auto, autoEng := mk(InferAuto)
	sampled, sampledEng := mk(InferSampled)
	if got := auto.NumComponents(); got != len(blocks) {
		t.Fatalf("%d components, want one per block (%d)", got, len(blocks))
	}

	// compare checks every still-sampled auto component against the pure
	// sampled run and returns how many it compared.
	compare := func(step string) int {
		t.Helper()
		compared := 0
		for k, c := range auto.comps {
			if auto.ComponentInference(k) != InferSampled {
				continue
			}
			compared++
			for _, m := range c.members {
				if a, s := auto.Probability(m), sampled.Probability(m); a != s {
					t.Fatalf("%s: component %d p(%d): auto %v != sampled %v", step, k, m, a, s)
				}
			}
		}
		return compared
	}
	exactBeforeSampled := false
	for k := 1; k < auto.NumComponents(); k++ {
		if auto.ComponentInference(k-1) == InferExact && auto.ComponentInference(k) == InferSampled {
			exactBeforeSampled = true
		}
	}
	if !exactBeforeSampled {
		t.Fatal("no exact component ahead of a sampled one; the fixture does not exercise stream order")
	}
	if got := compare("initial"); got != 5 {
		t.Fatalf("auto samples %d components, want the 5 large blocks", got)
	}

	net := auto.Network()
	assertBoth := func(c int) {
		t.Helper()
		if err := auto.Assert(c, truth[c]); err != nil {
			t.Fatal(err)
		}
		if err := sampled.Assert(c, truth[c]); err != nil {
			t.Fatal(err)
		}
		compare(net.DescribeCandidate(c))
	}
	// One off-diagonal disapproval in every sampled block.
	for _, at := range attrs {
		if len(at[0]) >= 4 {
			assertBoth(net.CandidateIndex(at[0][0], at[1][1]))
		}
	}

	// Bridge blocks 1 and 3 (both sampled): s1_0 ↔ t3_0 one-to-one-
	// conflicts with block 1's s1_0 row and block 3's t3_0 column.
	bridge := schema.Correspondence{A: attrs[1][0][0], B: attrs[3][1][0], Confidence: 0.5}
	for _, side := range []struct {
		p *PMN
		e *constraints.Engine
	}{{auto, autoEng}, {sampled, sampledEng}} {
		n := side.e.Network()
		if _, err := n.AppendCandidates([]schema.Correspondence{bridge}); err != nil {
			t.Fatal(err)
		}
		side.p.AdoptEngine(constraints.Default(n))
		if _, err := side.p.TopologyChanged(-1); err != nil {
			t.Fatal(err)
		}
	}
	net = auto.Network()
	merged := auto.ComponentOf(net.CandidateIndex(attrs[1][0][0], attrs[1][1][0]))
	if auto.ComponentOf(net.CandidateIndex(attrs[3][0][0], attrs[3][1][0])) != merged ||
		auto.NumComponents() != len(blocks)-1 {
		t.Fatalf("bridge did not merge blocks 1 and 3 (%d components)", auto.NumComponents())
	}
	if auto.ComponentInference(merged) != InferSampled {
		t.Fatal("merged component is exact under auto; the rebuilt stream is not exercised")
	}
	if got := compare("merge"); got != 4 {
		t.Fatalf("auto samples %d components after the merge, want 4", got)
	}
	// Keep asserting the diagonal of the merged component.
	for _, bl := range []int{1, 3} {
		for j := 1; j < 4; j++ {
			assertBoth(net.CandidateIndex(attrs[bl][0][j], attrs[bl][1][j]))
		}
	}
}

// TestSurvivorSeededWalkStaysMaximal merges two sampled components
// with a bridging candidate. The rebuilt component gets fresh pieces
// under the accumulated feedback, and each refill walks a piece from its
// last stored instance plus F+, resaturating only what each step's
// repair removed. Every stored instance of every piece must, with F+,
// be maximal within its piece under the current feedback — after the
// merge and after each later assertion.
func TestSurvivorSeededWalkStaysMaximal(t *testing.T) {
	// Block 0 has a spare S attribute and block 1 a spare T attribute,
	// so the bridge between them is addable to some instances and the
	// walk must saturate it in.
	e, attrs, truth := buildBipartiteBlocks(t, [][2]int{{5, 4}, {4, 5}})
	cfg := DefaultConfig()
	cfg.Inference = InferSampled
	p := MustNew(e, cfg, rand.New(rand.NewSource(3)))
	checkMaximal := func(step string) {
		t.Helper()
		for k := range p.comps {
			checkStoreInvariants(t, p, k)
		}
		if t.Failed() {
			t.Fatalf("after %s", step)
		}
	}
	net := e.Network()
	// One off-diagonal disapproval per block, so the merged component is
	// rebuilt under feedback.
	for _, at := range attrs {
		if err := p.Assert(net.CandidateIndex(at[0][0], at[1][1]), false); err != nil {
			t.Fatal(err)
		}
	}
	bridge := schema.Correspondence{A: attrs[0][0][0], B: attrs[1][1][0], Confidence: 0.5}
	if _, err := net.AppendCandidates([]schema.Correspondence{bridge}); err != nil {
		t.Fatal(err)
	}
	p.AdoptEngine(constraints.Default(net))
	if _, err := p.TopologyChanged(-1); err != nil {
		t.Fatal(err)
	}
	if p.NumComponents() != 1 {
		t.Fatalf("bridge left %d components, want the two blocks merged", p.NumComponents())
	}
	checkMaximal("merge")
	for _, at := range attrs {
		for j := 1; j < 4; j++ {
			c := net.CandidateIndex(at[0][j], at[1][j])
			if err := p.Assert(c, truth[c]); err != nil {
				t.Fatal(err)
			}
			checkMaximal(net.DescribeCandidate(c))
		}
	}
}

// TestAutoPromotionScript drives the two-star fixture until its whole
// instance space fits the budget: at construction it overflows (15 > 9)
// → sampled; one disapproval still overflows (11 > 9); the first
// within-budget state reports exact, its pieces are all enumerated and
// bit-identical to the Equation 1 reference, and it never resamples
// again.
func TestAutoPromotionScript(t *testing.T) {
	e, idx := buildTwoStarsNet(t)
	cfg := DefaultConfig()
	cfg.Inference = InferAuto
	cfg.ExactBudget = 9
	p := MustNew(e, cfg, rand.New(rand.NewSource(11)))
	if got := p.ComponentInference(0); got != InferSampled {
		t.Fatalf("construction: serves %v, want sampled (15 instances > budget 9)", got)
	}
	// free 8 → 7: attempt runs (7 < bar 8) but 3·4−1 = 11 > 9 → sampled.
	if err := p.Assert(idx["ab4"], false); err != nil {
		t.Fatal(err)
	}
	if got := p.ComponentInference(0); got != InferSampled {
		t.Fatalf("after 1 disapproval: serves %v, want still sampled (11 > 9)", got)
	}
	// free 7 → 6: 3·3−1 = 8 ≤ 9 → promoted.
	if err := p.Assert(idx["cd4"], false); err != nil {
		t.Fatal(err)
	}
	if got := p.ComponentInference(0); got != InferExact {
		t.Fatalf("after 2 disapprovals: serves %v, want exact (8 ≤ 9)", got)
	}
	if got := instanceCount(t, p, 0); got != 8 {
		t.Fatalf("exact component holds %d instances, want 8", got)
	}
	assertExactMatchesReference(t, p, e, "promoted")
	resamples := p.Resamples()
	// The exact tail: finish the reconciliation; the counter must not
	// move and every step stays on the reference.
	if err := p.Assert(idx["ab1"], true); err != nil {
		t.Fatal(err)
	}
	assertExactMatchesReference(t, p, e, "ab1")
	if err := p.Assert(idx["cd2"], true); err != nil {
		t.Fatal(err)
	}
	assertExactMatchesReference(t, p, e, "cd2")
	if got := p.Resamples(); got != resamples {
		t.Fatalf("exact tail resampled (%d → %d refills), want none", resamples, got)
	}
}

// TestApprovalIntoWalkedPieceEnumerates: the two-star piece overflows
// budget 9 (15 instances) and is walked until its store is complete by
// the two-rounds conclusion; approving ab1 keeps that completeness but
// leaves three instances. The component then reports exact, so the
// piece must be enumerated, not served from the walked store.
func TestApprovalIntoWalkedPieceEnumerates(t *testing.T) {
	e, idx := buildTwoStarsNet(t)
	cfg := DefaultConfig()
	cfg.Inference = InferAuto
	cfg.ExactBudget = 9
	p := MustNew(e, cfg, rand.New(rand.NewSource(11)))
	if n, x := p.PieceCounts(0); x == n {
		t.Fatalf("construction: %d of %d pieces exact, want the walked piece", x, n)
	}
	if err := p.Assert(idx["ab1"], true); err != nil {
		t.Fatal(err)
	}
	if got := p.ComponentInference(0); got != InferExact {
		t.Fatalf("after approving ab1: serves %v, want exact (3 ≤ 9)", got)
	}
	if got := instanceCount(t, p, 0); got != 3 {
		t.Fatalf("component holds %d instances, want 3", got)
	}
	assertExactMatchesReference(t, p, e, "ab1")
}

// TestPromotionOnAssertionThatEmptiesComponent: the last free candidate
// of a sampled component is asserted — the mode probe then runs
// against a fully determined space. Both flavors must work: a
// consistent history (a single surviving instance) and contradictory
// approvals (a genuinely empty instance space, probabilities driven by
// feedback overrides alone).
func TestPromotionOnAssertionThatEmptiesComponent(t *testing.T) {
	t.Run("consistent", func(t *testing.T) {
		e, idx := buildVideoNet(t)
		cfg := DefaultConfig()
		cfg.Inference = InferAuto
		cfg.ExactBudget = 2 // 4 instances > 2 → sampled; free 5 ≥ 2 → no construction attempt
		p := MustNew(e, cfg, rand.New(rand.NewSource(5)))
		if got := p.ComponentInference(0); got != InferSampled {
			t.Fatalf("construction: serves %v, want sampled", got)
		}
		truth := map[string]bool{"c1": true, "c2": true, "c3": true, "c4": false, "c5": false}
		for _, name := range []string{"c1", "c2", "c3", "c4", "c5"} {
			if err := p.Assert(idx[name], truth[name]); err != nil {
				t.Fatal(err)
			}
		}
		// free 0 < 2 after the final assertion → exact, the single
		// surviving instance {c1,c2,c3} (no piece is left).
		if got := p.ComponentInference(0); got != InferExact {
			t.Fatalf("after emptying the component: serves %v, want exact", got)
		}
		if got := instanceCount(t, p, 0); got != 1 {
			t.Fatalf("component holds %d instances, want 1", got)
		}
		if p.Entropy() != 0 {
			t.Fatalf("entropy %v, want 0", p.Entropy())
		}
		assertExactMatchesReference(t, p, e, "final")
	})
	t.Run("contradictory", func(t *testing.T) {
		e, idx := buildVideoNet(t)
		cfg := DefaultConfig()
		cfg.Inference = InferAuto
		cfg.ExactBudget = 2
		p := MustNew(e, cfg, rand.New(rand.NewSource(6)))
		// c3 and c5 conflict (both map productionDate into DVDizzy): no
		// instance satisfies both approvals.
		for _, a := range []struct {
			name    string
			approve bool
		}{{"c3", true}, {"c5", true}, {"c1", false}, {"c2", false}, {"c4", false}} {
			if err := p.Assert(idx[a.name], a.approve); err != nil {
				t.Fatal(err)
			}
		}
		if got := p.ComponentInference(0); got != InferExact {
			t.Fatalf("serves %v, want exact (empty space enumerates trivially)", got)
		}
		if got := instanceCount(t, p, 0); got != 0 {
			t.Fatalf("component holds %d instances, want 0 (contradictory approvals)", got)
		}
		if p.Probability(idx["c3"]) != 1 || p.Probability(idx["c5"]) != 1 {
			t.Fatal("approved candidates must stay at probability 1")
		}
		if p.Probability(idx["c1"]) != 0 || p.Entropy() != 0 {
			t.Fatal("disapproved/unsupported candidates must read 0 with zero entropy")
		}
	})
}

// TestFailedPromotionLeavesSampledStateIntact: an over-budget mode
// probe (ComponentInference) must be a pure no-op on the component —
// the piece stores hold exactly what a forced-sampled run with the same
// seed holds (the 11-instance piece also overflows the piece budget, so
// both walk it).
func TestFailedPromotionLeavesSampledStateIntact(t *testing.T) {
	e, idx := buildTwoStarsNet(t)
	mk := func(mode InferenceMode) *PMN {
		cfg := DefaultConfig()
		cfg.Samples = 80
		cfg.Sampler.NMin = 10
		cfg.Inference = mode
		cfg.ExactBudget = 9
		return MustNew(e, cfg, rand.New(rand.NewSource(13)))
	}
	p, twin := mk(InferAuto), mk(InferSampled)
	// After this assertion the whole space still overflows (11 > 9).
	for _, q := range []*PMN{p, twin} {
		if err := q.Assert(idx["ab4"], false); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.ComponentInference(0); got != InferSampled {
		t.Fatalf("over-budget component serves %v, want sampled", got)
	}
	got, want := p.UnitStores(0), twin.UnitStores(0)
	if len(got) != len(want) {
		t.Fatalf("%d piece stores, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Size() != want[i].Size() || got[i].Complete() != want[i].Complete() {
			t.Fatalf("piece %d: %d instances (complete %v), want %d (%v)",
				i, got[i].Size(), got[i].Complete(), want[i].Size(), want[i].Complete())
		}
		for j := 0; j < got[i].Size(); j++ {
			if !got[i].Instance(j).Equal(want[i].Instance(j)) {
				t.Fatalf("piece %d instance %d differs from the never-promoting run", i, j)
			}
		}
	}
	// The session keeps working end to end.
	for _, name := range []string{"cd4", "ab1", "cd2", "ab2", "cd1", "ab3", "cd3"} {
		if err := p.Assert(idx[name], name == "ab1" || name == "cd2"); err != nil {
			t.Fatal(err)
		}
	}
	if p.Entropy() != 0 {
		t.Fatalf("final entropy %v, want 0", p.Entropy())
	}
	assertExactMatchesReference(t, p, e, "final")
}

// TestAutoBatchReplayReconstructsMode: mode is derived state — batch-
// applying a history (the LoadSession path) must land on the same
// per-component modes and, for exact components, bit-identical
// probabilities as the step-by-step session that recorded it, promotion
// mid-history included.
func TestAutoBatchReplayReconstructsMode(t *testing.T) {
	e, idx := buildTwoStarsNet(t)
	mk := func() *PMN {
		cfg := DefaultConfig()
		cfg.Inference = InferAuto
		cfg.ExactBudget = 9
		return MustNew(e, cfg, rand.New(rand.NewSource(17)))
	}
	history := []Assertion{
		{Cand: idx["ab4"], Approved: false},
		{Cand: idx["cd4"], Approved: false}, // promotion fires here serially
		{Cand: idx["ab1"], Approved: true},
		{Cand: idx["cd2"], Approved: true},
	}
	serial := mk()
	for _, a := range history {
		if err := serial.Assert(a.Cand, a.Approved); err != nil {
			t.Fatal(err)
		}
	}
	batch := mk()
	if err := batch.AssertBatch(history); err != nil {
		t.Fatal(err)
	}
	if s, b := serial.ComponentInference(0), batch.ComponentInference(0); s != b || s != InferExact {
		t.Fatalf("modes differ: serial %v, batch %v (want exact both)", s, b)
	}
	for c := 0; c < e.Network().NumCandidates(); c++ {
		if s, b := serial.Probability(c), batch.Probability(c); s != b {
			t.Fatalf("p(%d): serial %v != batch replay %v", c, s, b)
		}
	}
	if s, b := serial.Entropy(), batch.Entropy(); math.Abs(s-b) > 0 {
		t.Fatalf("H: serial %v != batch %v", s, b)
	}
}
