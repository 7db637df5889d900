package schemanet_test

// Tests for the pluggable per-component inference surface: mode
// introspection, the exact-budget sentinel, promotion through the
// public API (serial, save→load, and concurrent), and the differential
// guarantee that auto mode preserves the concurrent ≡ serial contract.

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"schemanet"
)

// twoStarsNet builds the promotion fixture through the public API: two
// one-to-one stars (a0 ↔ b1..b4, c0 ↔ d1..d4) joined into one
// constraint-connected component by an exclusive attribute pair
// (b1, d1) — 15 matching instances over 8 candidates, so a budget of 9
// keeps the fresh network sampled and assertions promote it.
func twoStarsNet(t testing.TB) (*schemanet.Network, map[string]int) {
	t.Helper()
	b := schemanet.NewBuilder()
	s := b.AddSchema("S", "a0")
	tt := b.AddSchema("T", "b1", "b2", "b3", "b4")
	u := b.AddSchema("U", "c0")
	v := b.AddSchema("V", "d1", "d2", "d3", "d4")
	b.Connect(s, tt)
	b.Connect(u, v)
	for i := 1; i <= 4; i++ {
		b.AddCorrespondence(0, schemanet.AttrID(i), 0.5+0.1*float64(i))
		b.AddCorrespondence(5, schemanet.AttrID(5+i), 0.5+0.1*float64(i))
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i := 1; i <= 4; i++ {
		idx["ab"+string(rune('0'+i))] = net.CandidateIndex(0, schemanet.AttrID(i))
		idx["cd"+string(rune('0'+i))] = net.CandidateIndex(5, schemanet.AttrID(5+i))
	}
	return net, idx
}

// twoStarsOpts is the auto configuration that starts the fixture
// sampled (15 instances > budget 9) and promotes once two members are
// disapproved.
func twoStarsOpts() *schemanet.Options {
	return &schemanet.Options{
		Seed:           3,
		ExactBudget:    9,
		ExclusivePairs: [][2]schemanet.AttrID{{1, 6}}, // b1 ⊻ d1
	}
}

func TestSessionInferenceOf(t *testing.T) {
	net, _ := multiVideoNet(t, 3)
	// Default (auto): the tiny components enumerate exactly.
	s, err := schemanet.NewSession(net, &schemanet.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < s.Components(); k++ {
		mode, err := s.InferenceOf(k)
		if err != nil {
			t.Fatal(err)
		}
		if mode != schemanet.InferenceExact {
			t.Fatalf("component %d serves %v, want exact under the auto default", k, mode)
		}
	}
	// Pinned sampled: every component reports sampled.
	s2, err := schemanet.NewSession(net, &schemanet.Options{Seed: 1, Inference: "sampled"})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < s2.Components(); k++ {
		mode, err := s2.InferenceOf(k)
		if err != nil {
			t.Fatal(err)
		}
		if mode != schemanet.InferenceSampled {
			t.Fatalf("component %d serves %v, want sampled when pinned", k, mode)
		}
	}
	// Out-of-range component indices error instead of panicking.
	for _, k := range []int{-1, s.Components(), s.Components() + 5} {
		if _, err := s.InferenceOf(k); err == nil {
			t.Fatalf("InferenceOf(%d) accepted an out-of-range component", k)
		}
	}
	if got := schemanet.InferenceExact.String(); got != "exact" {
		t.Fatalf("InferenceExact.String() = %q, want %q", got, "exact")
	}
}

// TestExactBudgetExceededSurfaces is the regression test for the
// swallowed-overflow bug: forcing exact inference with a budget the
// instance space cannot fit must surface the documented sentinel
// through the public constructor — not silently degrade to sampling.
func TestExactBudgetExceededSurfaces(t *testing.T) {
	net, idx := twoStarsNet(t)
	_ = idx
	opts := twoStarsOpts()
	opts.Inference = "exact"
	_, err := schemanet.NewSession(net, opts)
	if !errors.Is(err, schemanet.ErrExactBudgetExceeded) {
		t.Fatalf("err = %v, want ErrExactBudgetExceeded", err)
	}
	if _, err := schemanet.NewConcurrentSession(net, opts); !errors.Is(err, schemanet.ErrExactBudgetExceeded) {
		t.Fatalf("concurrent err = %v, want ErrExactBudgetExceeded", err)
	}
	// A budget that fits succeeds, and so does the unbounded mode.
	opts.ExactBudget = 16
	if _, err := schemanet.NewSession(net, opts); err != nil {
		t.Fatalf("budget 16: %v", err)
	}
	if _, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact",
		ExclusivePairs: [][2]schemanet.AttrID{{1, 6}}}); err != nil {
		t.Fatalf("unbounded exact: %v", err)
	}
}

func TestInferenceOptionValidation(t *testing.T) {
	net, _ := videoNet(t)
	if _, err := schemanet.NewSession(net, &schemanet.Options{Inference: "psychic"}); err == nil ||
		!strings.Contains(err.Error(), "psychic") {
		t.Fatalf("unknown inference mode: err = %v, want it named", err)
	}
	if _, err := schemanet.NewSession(net, &schemanet.Options{ExactBudget: -1}); err == nil ||
		!strings.Contains(err.Error(), "ExactBudget") {
		t.Fatalf("negative ExactBudget: err = %v, want it named", err)
	}
}

// TestAutoSaveLoadRoundTripWithPromotion: a session that promoted a
// component mid-flight must round-trip through Save/LoadSession onto
// bit-identical probabilities AND the same per-component modes — the
// mode is derived state the restore reconstructs from the saved
// feedback, not persisted state.
func TestAutoSaveLoadRoundTripWithPromotion(t *testing.T) {
	net, idx := twoStarsNet(t)
	opts := twoStarsOpts()
	s, err := schemanet.NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mode, _ := s.InferenceOf(0); mode != schemanet.InferenceSampled {
		t.Fatalf("fresh fixture serves %v, want sampled", mode)
	}
	for _, a := range []struct {
		name    string
		approve bool
	}{{"ab4", false}, {"cd4", false}, {"ab1", true}} {
		if err := s.Assert(idx[a.name], a.approve); err != nil {
			t.Fatal(err)
		}
	}
	if mode, _ := s.InferenceOf(0); mode != schemanet.InferenceExact {
		t.Fatalf("after shrinking assertions the fixture serves %v, want exact (promoted)", mode)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := schemanet.LoadSession(net, opts, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if mode, _ := restored.InferenceOf(0); mode != schemanet.InferenceExact {
		t.Fatalf("restored session serves %v, want exact (mode reconstructed by replay)", mode)
	}
	for c := 0; c < net.NumCandidates(); c++ {
		if got, want := mustProb(t, restored, c), mustProb(t, s, c); got != want {
			t.Fatalf("restored p(%d) = %v, want %v", c, got, want)
		}
	}
	if got, want := restored.Uncertainty(), s.Uncertainty(); math.Abs(got-want) > 0 {
		t.Fatalf("restored uncertainty %v, want %v", got, want)
	}
	// The restored session keeps reconciling on the exact path.
	for _, name := range []string{"cd2", "ab2", "cd1", "ab3", "cd3"} {
		if err := restored.Assert(idx[name], name == "cd2"); err != nil {
			t.Fatal(err)
		}
	}
	if restored.Uncertainty() != 0 {
		t.Fatalf("final uncertainty %v, want 0", restored.Uncertainty())
	}
}

// TestConcurrentDisjointScheduleMatchesSerialAuto is the concurrent
// differential guarantee under the DEFAULT auto mode: a mixed network —
// small components exact from construction, the big ones sampled,
// promotions firing as the schedule shrinks components — still yields
// probabilities bit-identical to the same component-disjoint schedule
// applied serially, however goroutines interleave.
func TestConcurrentDisjointScheduleMatchesSerialAuto(t *testing.T) {
	d := benchMultiComponentDataset(t, 240, 4)
	net := d.Network
	opts := &schemanet.Options{Seed: 42, Samples: 150}

	serial, err := schemanet.NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := schemanet.NewConcurrentSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	modes := map[schemanet.InferenceMode]int{}
	for k := 0; k < serial.Components(); k++ {
		mode, err := serial.InferenceOf(k)
		if err != nil {
			t.Fatal(err)
		}
		modes[mode]++
	}
	if modes[schemanet.InferenceExact] == 0 {
		t.Fatal("test premise broken: no exact component under auto")
	}

	groups := disjointSchedule(t, serial, net, d.GroundTruth, func(c int) bool { return c%3 != 0 })
	for k := 0; k < conc.Components(); k++ {
		if as, ok := groups[k]; ok {
			for _, a := range as {
				if err := serial.Assert(a.Cand, a.Approved); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(groups))
	for _, as := range groups {
		wg.Add(1)
		go func(as []schemanet.Assertion) {
			defer wg.Done()
			for _, a := range as {
				if err := conc.Assert(a.Cand, a.Approved); err != nil {
					errs <- err
					return
				}
			}
		}(as)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for c := 0; c < net.NumCandidates(); c++ {
		sp := mustProb(t, serial, c)
		cp, err := conc.Probability(c)
		if err != nil {
			t.Fatal(err)
		}
		if sp != cp {
			t.Fatalf("p(%d): serial %v != concurrent %v", c, sp, cp)
		}
	}
	// Modes must agree per component after the schedule, too.
	for k := 0; k < serial.Components(); k++ {
		sm, _ := serial.InferenceOf(k)
		cm, err := conc.InferenceOf(k)
		if err != nil {
			t.Fatal(err)
		}
		if sm != cm {
			t.Fatalf("component %d: serial mode %v != concurrent mode %v", k, sm, cm)
		}
	}
	if sh, ch := serial.Uncertainty(), conc.Uncertainty(); sh != ch {
		t.Fatalf("H: serial %v != concurrent %v", sh, ch)
	}
}

// TestConcurrentPromotionUnderContention hammers one auto component
// with same-component assertions from many goroutines while readers
// poll probabilities and the inference mode — the race detector guards
// the promotion swap, and the final state must be the fully determined
// exact component regardless of arrival order.
func TestConcurrentPromotionUnderContention(t *testing.T) {
	net, idx := twoStarsNet(t)
	conc, err := schemanet.NewConcurrentSession(net, twoStarsOpts())
	if err != nil {
		t.Fatal(err)
	}
	truth := func(name string) bool { return name == "ab1" || name == "cd2" }

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if mode, err := conc.InferenceOf(0); err != nil ||
					(mode != schemanet.InferenceSampled && mode != schemanet.InferenceExact) {
					t.Errorf("InferenceOf = %v, %v", mode, err)
					return
				}
				for c := 0; c < net.NumCandidates(); c++ {
					if p, err := conc.Probability(c); err != nil || p < 0 || p > 1 {
						t.Errorf("Probability(%d) = %v, %v", c, p, err)
						return
					}
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for name := range idx {
		writers.Add(1)
		go func(name string) {
			defer writers.Done()
			if err := conc.Assert(idx[name], truth(name)); err != nil {
				t.Errorf("Assert(%s): %v", name, err)
			}
		}(name)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	if mode, _ := conc.InferenceOf(0); mode != schemanet.InferenceExact {
		t.Fatalf("fully asserted component serves %v, want exact (promoted)", mode)
	}
	for name, c := range idx {
		want := 0.0
		if truth(name) {
			want = 1
		}
		if got, err := conc.Probability(c); err != nil || got != want {
			t.Fatalf("p(%s) = %v (%v), want %v", name, got, err, want)
		}
	}
	if h := conc.Uncertainty(); h != 0 {
		t.Fatalf("uncertainty %v, want 0", h)
	}
}

// TestInferenceOfSettledAllocatesNothing: under "auto" the whole-
// component rule is monotone along a feedback path, so a component that
// reports exact keeps that answer without enumerating again. videoNet is
// one component that enumerates within the default budget; every later
// InferenceOf call on it must allocate nothing, on a Session and on a
// ConcurrentSession.
func TestInferenceOfSettledAllocatesNothing(t *testing.T) {
	net, _ := videoNet(t)
	opts := schemanet.Options{Seed: 1}
	s, err := schemanet.NewSession(net, &opts)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := schemanet.NewConcurrentSession(net, &opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range []struct {
		name        string
		inferenceOf func(int) (schemanet.InferenceMode, error)
	}{{"Session", s.InferenceOf}, {"ConcurrentSession", cs.InferenceOf}} {
		if mode, err := sf.inferenceOf(0); err != nil || mode != schemanet.InferenceExact {
			t.Fatalf("%s: InferenceOf(0) = %v, %v; want exact", sf.name, mode, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { sf.inferenceOf(0) }); allocs != 0 {
			t.Fatalf("%s: InferenceOf(0) of an exact component allocated %v times per call, want 0", sf.name, allocs)
		}
	}
}
