package schemanet_test

// Differential tests for the lazy bound-pruned top-k suggestion
// ranking: on every session surface (plain, concurrent, durable) each
// pruned suggestion must lie in the exhaustive tie set of a plain
// oracle Session fed the same operations, and probabilities must stay
// bit-identical — over randomized assert/grow/retire interleavings,
// since topology changes carry or invalidate the evaluator's cached
// bounds. This file runs under `go test -race` in CI.

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"schemanet"
	"schemanet/internal/wal"
)

// suggester is the differential surface shared by Session,
// ConcurrentSession, and DurableSession.
type suggester interface {
	Suggest() (int, bool)
	Assert(c int, correct bool) error
	AddCandidates([]schemanet.Correspondence) error
	RetireCandidate(c int) error
	Probability(c int) (float64, error)
	Network() *schemanet.Network
}

// growthPair deterministically picks the next attribute pair that is
// not yet a candidate (attributes from different schemas, scanned in a
// fixed order) — both sides of a differential run derive the identical
// pair from their own private network clones.
func growthPair(net *schemanet.Network, cursor *int) (schemanet.Correspondence, bool) {
	na := net.NumAttributes()
	for ; *cursor < na*na; *cursor++ {
		a := schemanet.AttrID(*cursor / na)
		b := schemanet.AttrID(*cursor % na)
		if a >= b || net.SchemaOf(a) == net.SchemaOf(b) {
			continue
		}
		if net.CandidateIndex(a, b) >= 0 {
			continue
		}
		*cursor++
		return schemanet.Correspondence{A: a, B: b, Confidence: 0.55}, true
	}
	return schemanet.Correspondence{}, false
}

// driveDifferential runs an identical randomized schedule of
// suggest/assert steps, candidate arrivals, and retirements against a
// pruned surface and a plain oracle Session fed the same operations.
// Every pruned suggestion must lie in the oracle's exhaustive tie set
// (ExhaustiveTies), or — once no uncertain candidate remains — be a
// live, unasserted candidate. prunedTies, when non-nil, exposes the
// pruned side's full tie set, which must then equal the oracle's
// exactly, gain included. At the end every probability must match
// bitwise.
func driveDifferential(t *testing.T, pruned suggester, prunedTies func() ([]int, float64),
	oracle *schemanet.Session, truth *schemanet.Matching, steps int, seed int64) {
	t.Helper()
	sched := rand.New(rand.NewSource(seed))
	prCursor, orCursor := 0, 0
	asserted := map[int]bool{}
	retired := map[int]bool{}
	for step := 0; step < steps; step++ {
		switch op := sched.Intn(12); {
		case op == 0:
			// Grow: the same fresh candidate arrives on both sessions.
			pc, okA := growthPair(pruned.Network(), &prCursor)
			oc, okB := growthPair(oracle.Network(), &orCursor)
			if okA != okB || pc != oc {
				t.Fatalf("step %d: growth pair diverged: %v/%v vs %v/%v", step, pc, okA, oc, okB)
			}
			if !okA {
				continue
			}
			if err := pruned.AddCandidates([]schemanet.Correspondence{pc}); err != nil {
				t.Fatalf("step %d: pruned AddCandidates: %v", step, err)
			}
			if err := oracle.AddCandidates([]schemanet.Correspondence{oc}); err != nil {
				t.Fatalf("step %d: oracle AddCandidates: %v", step, err)
			}
		case op == 1:
			// Retire a deterministic live, unasserted candidate (if any).
			nc := pruned.Network().NumCandidates()
			c := sched.Intn(nc)
			if asserted[c] || retired[c] {
				continue
			}
			if err := pruned.RetireCandidate(c); err != nil {
				t.Fatalf("step %d: pruned RetireCandidate(%d): %v", step, c, err)
			}
			if err := oracle.RetireCandidate(c); err != nil {
				t.Fatalf("step %d: oracle RetireCandidate(%d): %v", step, c, err)
			}
			retired[c] = true
		default:
			want, wantGain := schemanet.ExhaustiveTies(oracle)
			if prunedTies != nil {
				if got, gotGain := prunedTies(); gotGain != wantGain || !slices.Equal(got, want) {
					t.Fatalf("step %d: pruned ties %v (gain %v) != exhaustive %v (gain %v)",
						step, got, gotGain, want, wantGain)
				}
			}
			pc, ok := pruned.Suggest()
			live := pruned.Network().NumCandidates() - len(asserted) - len(retired)
			switch {
			case !ok:
				if live != 0 {
					t.Fatalf("step %d: pruned drained with %d live unasserted candidates", step, live)
				}
				steps = step // drained: finish with the probability sweep
				continue
			case len(want) > 0:
				if !slices.Contains(want, pc) {
					t.Fatalf("step %d: pruned suggests %d, outside exhaustive ties %v (gain %v)",
						step, pc, want, wantGain)
				}
			case asserted[pc] || retired[pc]:
				t.Fatalf("step %d: fallback suggestion %d is asserted or retired", step, pc)
			}
			approve := truth.ContainsCorrespondence(pruned.Network().Candidate(pc))
			if err := pruned.Assert(pc, approve); err != nil {
				t.Fatalf("step %d: pruned Assert(%d): %v", step, pc, err)
			}
			if err := oracle.Assert(pc, approve); err != nil {
				t.Fatalf("step %d: oracle Assert(%d): %v", step, pc, err)
			}
			asserted[pc] = true
		}
	}
	nc := pruned.Network().NumCandidates()
	for c := 0; c < nc; c++ {
		if retired[c] {
			continue
		}
		if pp, op := mustProb(t, pruned, c), mustProb(t, oracle, c); pp != op {
			t.Fatalf("p(%d): pruned %v != oracle %v", c, pp, op)
		}
	}
}

func topkOptions(workers int) *schemanet.Options {
	return &schemanet.Options{Seed: 7, Samples: 150, Inference: "sampled", Workers: workers}
}

// newOracle builds the plain reference Session the differential runs
// feed alongside each pruned surface.
func newOracle(t *testing.T, d *schemanet.Dataset, workers int) *schemanet.Session {
	t.Helper()
	s, err := schemanet.NewSession(d.Network, topkOptions(workers))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSuggestPrunedMatchesExhaustivePlain: the plain Session surface,
// where the whole pruned tie set is visible and must equal the
// exhaustive one.
func TestSuggestPrunedMatchesExhaustivePlain(t *testing.T) {
	d := benchMultiComponentDataset(t, 240, 4)
	pr, err := schemanet.NewSession(d.Network, topkOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	ties := func() ([]int, float64) { return schemanet.PrunedTies(pr) }
	driveDifferential(t, pr, ties, newOracle(t, d, 0), d.GroundTruth, 160, 3)
}

// TestSuggestPrunedMatchesExhaustiveConcurrent: the concurrent surface,
// where lazy ranking composes with coalesced snapshot publication and
// the entropy-ordered component skip.
func TestSuggestPrunedMatchesExhaustiveConcurrent(t *testing.T) {
	d := benchMultiComponentDataset(t, 240, 4)
	pr, err := schemanet.NewConcurrentSession(d.Network, topkOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	oracle := newOracle(t, d, 4)
	driveDifferential(t, pr, nil, oracle, d.GroundTruth, 160, 11)
	if ph, oh := pr.Uncertainty(), oracle.Uncertainty(); ph != oh {
		t.Fatalf("H: pruned %v != oracle %v", ph, oh)
	}
}

// TestSuggestPrunedMatchesExhaustiveDurable: the durable surface — the
// WAL-backed session delegates serving to the concurrent layer, so the
// lazy path must survive the record/replay plumbing too.
func TestSuggestPrunedMatchesExhaustiveDurable(t *testing.T) {
	d := benchMultiComponentDataset(t, 160, 4)
	st, err := schemanet.OpenStore("pruned", d.Network, &schemanet.StoreOptions{
		Session: topkOptions(2), FS: wal.NewMemFS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pr, err := st.Session("diff")
	if err != nil {
		t.Fatal(err)
	}
	driveDifferential(t, pr, nil, newOracle(t, d, 2), d.GroundTruth, 120, 19)
}

// TestConcurrentPrunedContention hammers a pruned session with
// concurrent suggesters, asserters on disjoint component schedules,
// and probability/uncertainty readers — the `-race -cpu 4` contention
// coverage for the intra-component parallel re-rank plus coalesced
// publication. Correctness of the values is covered by the
// differential tests above; this test is about the interleavings.
func TestConcurrentPrunedContention(t *testing.T) {
	d := benchMultiComponentDataset(t, 240, 4)
	cs, err := schemanet.NewConcurrentSession(d.Network, topkOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := schemanet.NewSession(d.Network, topkOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	groups := disjointSchedule(t, serial, d.Network, d.GroundTruth, func(c int) bool { return c%2 == 0 })

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for _, as := range groups {
		wg.Add(1)
		go func(as []schemanet.Assertion) {
			defer wg.Done()
			for i, a := range as {
				if i%5 == 4 {
					// Mix in batches so eager batch publication races the
					// coalesced single-assert path.
					hi := i + 1
					if hi > len(as) {
						hi = len(as)
					}
					if err := cs.AssertBatch(as[i:hi]); err != nil {
						fail(err)
						return
					}
					continue
				}
				if err := cs.Assert(a.Cand, a.Approved); err != nil {
					fail(err)
					return
				}
			}
		}(as)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, ok := cs.Suggest(); !ok {
					return
				}
				if _, err := cs.Probability(i % d.Network.NumCandidates()); err != nil {
					fail(err)
					return
				}
				_ = cs.Uncertainty()
			}
		}(r)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	// The session must still serve exact, internally consistent state.
	if _, ok := cs.Suggest(); !ok && cs.Effort() < 1 {
		t.Fatal("suggestions drained before full effort")
	}
}
