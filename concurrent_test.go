package schemanet_test

// Tests for the concurrent serving layer. The headline differential
// guarantee: a component-disjoint assertion schedule executed by P
// concurrent goroutines produces probabilities bit-identical to the
// same schedule executed serially on a fresh session with the same
// seed — each component samples from its own deterministic rng stream,
// so goroutine interleaving cannot perturb the draws. The whole file
// runs under `go test -race` in CI.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"schemanet"
	"schemanet/internal/wal"
)

// disjointSchedule groups a subset of candidates by component,
// preserving ascending candidate order within each group.
func disjointSchedule(t testing.TB, s *schemanet.Session, net *schemanet.Network,
	truth *schemanet.Matching, keep func(c int) bool) map[int][]schemanet.Assertion {
	t.Helper()
	groups := make(map[int][]schemanet.Assertion)
	for c := 0; c < net.NumCandidates(); c++ {
		if !keep(c) {
			continue
		}
		k, err := s.ComponentOf(c)
		if err != nil {
			t.Fatal(err)
		}
		groups[k] = append(groups[k], schemanet.Assertion{
			Cand: c, Approved: truth.ContainsCorrespondence(net.Candidate(c)),
		})
	}
	return groups
}

// TestConcurrentDisjointScheduleMatchesSerial drives a sampled (not
// exact) multi-component network, so the comparison exercises the
// per-component rng streams, not just deterministic enumeration —
// inference is pinned to "sampled" for that reason (the default auto
// mode would enumerate the small components exactly; the auto variant
// below covers mixed modes and promotion). Only every third candidate
// is asserted, keeping the stores sampled and the probabilities
// fractional.
func TestConcurrentDisjointScheduleMatchesSerial(t *testing.T) {
	d := benchMultiComponentDataset(t, 240, 4)
	net := d.Network
	opts := &schemanet.Options{Seed: 42, Samples: 150, Inference: "sampled"}

	serial, err := schemanet.NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := schemanet.NewConcurrentSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if conc.Components() < 4 {
		t.Fatalf("merged network has %d components, want ≥ 4", conc.Components())
	}

	groups := disjointSchedule(t, serial, net, d.GroundTruth, func(c int) bool { return c%3 == 0 })

	// Serial reference: component groups in ascending order, candidates
	// in schedule order.
	for k := 0; k < conc.Components(); k++ {
		if as, ok := groups[k]; ok {
			for _, a := range as {
				if err := serial.Assert(a.Cand, a.Approved); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Concurrent execution: one goroutine per component.
	var wg sync.WaitGroup
	errs := make([]error, 0)
	var errMu sync.Mutex
	for _, as := range groups {
		wg.Add(1)
		go func(as []schemanet.Assertion) {
			defer wg.Done()
			for _, a := range as {
				if err := conc.Assert(a.Cand, a.Approved); err != nil {
					errMu.Lock()
					errs = append(errs, err)
					errMu.Unlock()
					return
				}
			}
		}(as)
	}
	wg.Wait()
	for _, err := range errs {
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
	if sh, ch := serial.Uncertainty(), conc.Uncertainty(); sh != ch {
		t.Fatalf("H: serial %v != concurrent %v", sh, ch)
	}
}

// TestConcurrentBatchMatchesSerialExact: under exact inference a batch
// fanned out across the worker pool must land on exactly the serial
// step-by-step probabilities (enumeration is deterministic, so the
// comparison is strict equality).
func TestConcurrentBatchMatchesSerialExact(t *testing.T) {
	net, truth := multiVideoNet(t, 5)
	serial, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	conc, err := schemanet.NewConcurrentSession(net, &schemanet.Options{Inference: "exact", Seed: 9, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var batch []schemanet.Assertion
	for c := 0; c < net.NumCandidates(); c += 2 {
		batch = append(batch, schemanet.Assertion{
			Cand: c, Approved: truth.ContainsCorrespondence(net.Candidate(c)),
		})
	}
	for _, a := range batch {
		if err := serial.Assert(a.Cand, a.Approved); err != nil {
			t.Fatal(err)
		}
	}
	if err := conc.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < net.NumCandidates(); c++ {
		if sp, cp := mustProb(t, serial, c), mustProb(t, conc, c); sp != cp {
			t.Fatalf("p(%d): serial %v != concurrent batch %v", c, sp, cp)
		}
	}
}

// TestConcurrentReadsDuringWrites hammers the lock-free read paths
// while writers reconcile disjoint components — the race detector
// turns any snapshot-discipline violation into a failure.
func TestConcurrentReadsDuringWrites(t *testing.T) {
	net, truth := multiVideoNet(t, 6)
	conc, err := schemanet.NewConcurrentSession(net, &schemanet.Options{Seed: 3, Samples: 80})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := schemanet.NewSession(net, &schemanet.Options{Seed: 3, Samples: 80})
	if err != nil {
		t.Fatal(err)
	}
	groups := disjointSchedule(t, serial, net, truth, func(int) bool { return true })

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for c := 0; c < net.NumCandidates(); c++ {
					if p, err := conc.Probability(c); err != nil || p < 0 || p > 1 {
						t.Errorf("Probability(%d) = %v, %v", c, p, err)
						return
					}
				}
				if h := conc.Uncertainty(); math.IsNaN(h) || h < 0 {
					t.Errorf("Uncertainty = %v", h)
					return
				}
				conc.Suggest()
				conc.Effort()
			}
		}()
	}
	var writers sync.WaitGroup
	for _, as := range groups {
		writers.Add(1)
		go func(as []schemanet.Assertion) {
			defer writers.Done()
			for _, a := range as {
				if err := conc.Assert(a.Cand, a.Approved); err != nil {
					t.Errorf("Assert(%d): %v", a.Cand, err)
					return
				}
			}
		}(as)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	if got := conc.Instantiate(); got.Size() == 0 {
		t.Fatal("empty instantiation after full concurrent reconciliation")
	}
	if h := conc.Uncertainty(); h != 0 {
		t.Fatalf("uncertainty %v after full feedback, want 0", h)
	}
}

// TestConcurrentSuggestDrains: the merged lock-free suggestion loop
// must drain every component's uncertainty, then degrade to the
// unasserted fallback, then report exhaustion.
func TestConcurrentSuggestDrains(t *testing.T) {
	net, truth := multiVideoNet(t, 3)
	conc, err := schemanet.NewConcurrentSession(net, &schemanet.Options{Inference: "exact", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		c, ok := conc.Suggest()
		if !ok {
			break
		}
		if err := conc.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatal(err)
		}
		if steps++; steps > net.NumCandidates() {
			t.Fatal("suggestion loop did not terminate")
		}
	}
	if steps != net.NumCandidates() {
		t.Fatalf("drained %d candidates, want %d", steps, net.NumCandidates())
	}
	if h := conc.Uncertainty(); h != 0 {
		t.Fatalf("uncertainty %v after draining, want 0", h)
	}
	if e := conc.Effort(); e != 1 {
		t.Fatalf("effort %v after draining, want 1", e)
	}
}

// TestConcurrentDeferredRankingFreshReads: deferring the gain re-rank
// to the next Suggest must not defer probability or uncertainty
// freshness — Assert publishes a probs-only snapshot before returning,
// so an asserted candidate reads 1/0 immediately with no Suggest in
// between; and the Suggest that follows an assert-only burst, which
// upgrades the stale components under their locks, still never hands
// out an asserted candidate.
func TestConcurrentDeferredRankingFreshReads(t *testing.T) {
	d := benchMultiComponentDataset(t, 180, 4)
	net := d.Network
	conc, err := schemanet.NewConcurrentSession(net, &schemanet.Options{Seed: 17, Samples: 120})
	if err != nil {
		t.Fatal(err)
	}
	h0 := conc.Uncertainty()
	asserted := map[int]bool{}
	for c := 0; c < net.NumCandidates(); c += 5 {
		ok := d.GroundTruth.ContainsCorrespondence(net.Candidate(c))
		if err := conc.Assert(c, ok); err != nil {
			t.Fatal(err)
		}
		asserted[c] = true
		want := 0.0
		if ok {
			want = 1
		}
		if got, err := conc.Probability(c); err != nil || got != want {
			t.Fatalf("p(%d) = %v (err %v) immediately after Assert, want %v", c, got, err, want)
		}
	}
	if h1 := conc.Uncertainty(); h1 >= h0 {
		t.Fatalf("uncertainty %v did not drop from %v across the assert burst", h1, h0)
	}
	c, ok := conc.Suggest()
	if !ok {
		t.Fatal("Suggest found nothing after a partial burst")
	}
	if asserted[c] {
		t.Fatalf("Suggest returned already-asserted candidate %d", c)
	}
}

// TestConcurrentSingleComponent covers the trivial-partition path (one
// lock, whole-universe snapshots) end to end.
func TestConcurrentSingleComponent(t *testing.T) {
	net, truth := videoNet(t)
	conc, err := schemanet.NewConcurrentSession(net, &schemanet.Options{Inference: "exact", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if conc.Components() != 1 {
		t.Fatalf("components = %d, want 1", conc.Components())
	}
	for {
		c, ok := conc.Suggest()
		if !ok {
			break
		}
		if err := conc.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatal(err)
		}
	}
	trusted := conc.Instantiate()
	if trusted.Size() != 3 || trusted.IntersectionSize(truth) != 3 {
		t.Fatalf("instantiation %v, want the truth triangle", trusted.Pairs())
	}
}

// TestConcurrentSessionBadInput: the serving layer must reject — never
// panic on — out-of-universe candidates, double assertions, and
// malformed batches, all without state changes.
func TestConcurrentSessionBadInput(t *testing.T) {
	net, _ := multiVideoNet(t, 2)
	conc, err := schemanet.NewConcurrentSession(net, &schemanet.Options{Inference: "exact", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := net.NumCandidates()
	for _, c := range []int{-1, n, n + 7} {
		if err := conc.Assert(c, true); !errors.Is(err, schemanet.ErrUnknownCandidate) {
			t.Fatalf("Assert(%d) err = %v, want ErrUnknownCandidate", c, err)
		}
		if _, err := conc.Probability(c); !errors.Is(err, schemanet.ErrUnknownCandidate) {
			t.Fatalf("Probability(%d) err = %v, want ErrUnknownCandidate", c, err)
		}
		if _, err := conc.ComponentOf(c); !errors.Is(err, schemanet.ErrUnknownCandidate) {
			t.Fatalf("ComponentOf(%d) err = %v, want ErrUnknownCandidate", c, err)
		}
		if d := conc.Describe(c); !strings.Contains(d, "unknown candidate") {
			t.Fatalf("Describe(%d) = %q, want a placeholder (and no panic)", c, d)
		}
	}
	if err := conc.Assert(0, true); err != nil {
		t.Fatal(err)
	}
	// The routine serving collision: two experts handed the same
	// suggestion — the loser must get the classifiable sentinel.
	if err := conc.Assert(0, false); !errors.Is(err, schemanet.ErrAlreadyAsserted) {
		t.Fatalf("double assert err = %v, want ErrAlreadyAsserted", err)
	}

	// A rejected batch must leave no trace: capture the full state
	// fingerprint first.
	h0 := conc.Uncertainty()
	e0 := conc.Effort()
	probs0 := make([]float64, n)
	for c := range probs0 {
		probs0[c] = mustProb(t, conc, c)
	}
	for name, batch := range map[string][]schemanet.Assertion{
		"out-of-universe":  {{Cand: 1, Approved: true}, {Cand: n, Approved: true}},
		"duplicate":        {{Cand: 1, Approved: true}, {Cand: 1, Approved: false}},
		"already-asserted": {{Cand: 1, Approved: true}, {Cand: 0, Approved: true}},
	} {
		if err := conc.AssertBatch(batch); err == nil {
			t.Fatalf("%s batch must fail", name)
		}
		for c := range probs0 {
			if p := mustProb(t, conc, c); p != probs0[c] {
				t.Fatalf("%s batch leaked state: p(%d) %v -> %v", name, c, probs0[c], p)
			}
		}
		if h := conc.Uncertainty(); h != h0 {
			t.Fatalf("%s batch leaked state: H %v -> %v", name, h0, h)
		}
		if e := conc.Effort(); e != e0 {
			t.Fatalf("%s batch leaked state: effort %v -> %v", name, e0, e)
		}
	}
	if err := conc.AssertBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestConcurrentAssertsSameComponentSerialize: contended same-component
// assertions are all applied (serialized by the component lock), ending
// in a fully asserted component.
func TestConcurrentAssertsSameComponentSerialize(t *testing.T) {
	net, truth := videoNet(t)
	conc, err := schemanet.NewConcurrentSession(net, &schemanet.Options{Inference: "exact", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < net.NumCandidates(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if err := conc.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
				t.Errorf("Assert(%d): %v", c, err)
			}
		}(c)
	}
	wg.Wait()
	if e := conc.Effort(); e != 1 {
		t.Fatalf("effort %v, want 1", e)
	}
	for c := 0; c < net.NumCandidates(); c++ {
		want := 0.0
		if truth.ContainsCorrespondence(net.Candidate(c)) {
			want = 1
		}
		if got := mustProb(t, conc, c); got != want {
			t.Fatalf("p(%d) = %v, want %v", c, got, want)
		}
	}
}

// TestConcurrentSaveRoundTrip: a snapshot saved mid-flight restores to
// a working serial session.
func TestConcurrentSaveRoundTrip(t *testing.T) {
	net, truth := multiVideoNet(t, 2)
	conc, err := schemanet.NewConcurrentSession(net, &schemanet.Options{Inference: "exact", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if err := conc.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := conc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := schemanet.LoadSession(net, &schemanet.Options{Inference: "exact", Seed: 4}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < net.NumCandidates(); c++ {
		if got, want := mustProb(t, restored, c), mustProb(t, conc, c); got != want {
			t.Fatalf("restored p(%d) = %v, want %v", c, got, want)
		}
	}
}

// TestConcurrentSaveRacingAssertBatch: Save's snapshot must be a
// consistent sequence point — a batch that races it appears in the
// saved history whole or not at all, never torn, and its records stay
// contiguous (the batch appends them to the feedback log in one
// critical section). Runs under -race in CI.
func TestConcurrentSaveRacingAssertBatch(t *testing.T) {
	net, truth := multiVideoNet(t, 4)
	conc, err := schemanet.NewConcurrentSession(net, &schemanet.Options{Inference: "exact", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Slice the candidate universe into batches of 3 and tag each
	// candidate's printed names with its batch, so a decoded history can
	// be checked for torn batches.
	const batchSize = 3
	batchOf := make(map[string]int) // "from|to" -> batch index
	var batches [][]schemanet.Assertion
	for c := 0; c+batchSize <= net.NumCandidates(); c += batchSize {
		var b []schemanet.Assertion
		for _, cc := range []int{c, c + 1, c + 2} {
			b = append(b, schemanet.Assertion{
				Cand: cc, Approved: truth.ContainsCorrespondence(net.Candidate(cc)),
			})
			cand := net.Candidate(cc)
			batchOf[net.FullName(cand.A)+"|"+net.FullName(cand.B)] = len(batches)
		}
		batches = append(batches, b)
	}
	if len(batches) < 4 {
		t.Fatalf("only %d batches; need contention", len(batches))
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(batches)+64)
	// Two writers split the batches between them.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(batches); i += 2 {
				if err := conc.AssertBatch(batches[i]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// A saver snapshots continuously while the writers run.
	var snapshots [][]byte
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			var buf bytes.Buffer
			if err := conc.Save(&buf); err != nil {
				errs <- err
				return
			}
			snapshots = append(snapshots, append([]byte(nil), buf.Bytes()...))
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A final save, after every batch landed, must hold all of them.
	var final bytes.Buffer
	if err := conc.Save(&final); err != nil {
		t.Fatal(err)
	}
	snapshots = append(snapshots, final.Bytes())

	for i, snap := range snapshots {
		var st struct {
			History []struct {
				From string `json:"from"`
				To   string `json:"to"`
			} `json:"history"`
		}
		if err := json.Unmarshal(snap, &st); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if len(st.History)%batchSize != 0 {
			t.Fatalf("snapshot %d holds %d records: a batch of %d was torn", i, len(st.History), batchSize)
		}
		if i == len(snapshots)-1 && len(st.History) != len(batches)*batchSize {
			t.Fatalf("final snapshot holds %d records, want all %d", len(st.History), len(batches)*batchSize)
		}
		// Whole batches, each contiguous.
		seen := make(map[int]bool)
		for j := 0; j < len(st.History); j += batchSize {
			b, ok := batchOf[st.History[j].From+"|"+st.History[j].To]
			if !ok {
				t.Fatalf("snapshot %d: unknown record %+v", i, st.History[j])
			}
			if seen[b] {
				t.Fatalf("snapshot %d: batch %d appears twice", i, b)
			}
			seen[b] = true
			for k := 1; k < batchSize; k++ {
				got := batchOf[st.History[j+k].From+"|"+st.History[j+k].To]
				if got != b {
					t.Fatalf("snapshot %d: record %d belongs to batch %d, interleaved into batch %d",
						i, j+k, got, b)
				}
			}
		}
		// Every snapshot must itself be loadable.
		if _, err := schemanet.LoadSession(net, &schemanet.Options{Inference: "exact", Seed: 8}, bytes.NewReader(snap)); err != nil {
			t.Fatalf("snapshot %d does not load: %v", i, err)
		}
	}
}

// TestStrategyHonouredOnEverySurface drives each non-default
// Options.Strategy through Session, ConcurrentSession and a store's
// DurableSession and checks every suggestion against the strategy's own
// rule: by-confidence follows the serial session exactly (it draws no
// rng), least-certain picks a candidate closest to ½, and random reaches
// candidates that are already certain, which the info-gain ranking never
// suggests while uncertain ones remain.
func TestStrategyHonouredOnEverySurface(t *testing.T) {
	d, _ := benchDataset(t, 128)
	net := d.Network
	type surface interface {
		Suggest() (int, bool)
		Assert(int, bool) error
		Probability(int) (float64, error)
	}
	for _, strategy := range []string{"by-confidence", "least-certain", "random"} {
		opts := &schemanet.Options{Seed: 3, Strategy: strategy}
		ref, err := schemanet.NewSession(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := schemanet.NewConcurrentSession(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{Session: opts, FS: wal.NewMemFS(), Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := st.Session(strategy)
		if err != nil {
			t.Fatal(err)
		}
		var refSeq []int
		for i, sf := range []surface{ref, cs, ds} {
			asserted := map[int]bool{}
			certainPicks := 0
			for step := 0; step < 12; step++ {
				c, ok := sf.Suggest()
				if !ok {
					t.Fatalf("%s surface %d step %d: nothing to suggest", strategy, i, step)
				}
				dist := func(c int) float64 {
					p, err := sf.Probability(c)
					if err != nil {
						t.Fatal(err)
					}
					return math.Abs(p - 0.5)
				}
				switch strategy {
				case "by-confidence":
					if i == 0 {
						refSeq = append(refSeq, c)
					} else if c != refSeq[step] {
						t.Fatalf("%s surface %d step %d: suggests %d, serial session suggests %d", strategy, i, step, c, refSeq[step])
					}
				case "least-certain":
					for o := 0; o < net.NumCandidates(); o++ {
						if !asserted[o] && dist(o) < 0.5 && dist(o) < dist(c) {
							t.Fatalf("%s surface %d step %d: suggests %d (|p-½|=%v) but %d is closer (%v)", strategy, i, step, c, dist(c), o, dist(o))
						}
					}
				case "random":
					if dist(c) == 0.5 {
						certainPicks++
					}
				}
				asserted[c] = true
				if err := sf.Assert(c, d.GroundTruth.ContainsCorrespondence(net.Candidate(c))); err != nil {
					t.Fatal(err)
				}
			}
			if strategy == "random" && certainPicks == 0 {
				t.Fatalf("random surface %d: 12 suggestions, none of them certain; the surface is not drawing from all unasserted candidates", i)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentSuggestFirstMatchesUncertaintyFirst: a fresh wrapper
// publishes nothing up front, and a topology op leaves its rebuilt
// components unpublished — the next reader publishes them. Suggest as
// the very first call, and again as the first call after AddCandidates
// rebuilds a component, must serve the same suggestions and
// bit-identical probabilities as a twin whose first call each time is
// Uncertainty.
func TestConcurrentSuggestFirstMatchesUncertaintyFirst(t *testing.T) {
	net, truth := multiVideoNet(t, 3)
	opts := &schemanet.Options{Seed: 8, Samples: 120, Inference: "sampled"}
	type trace struct {
		suggested []int
		probs     []float64
	}
	run := func(uncertaintyFirst bool) trace {
		conc, err := schemanet.NewConcurrentSession(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		var tr trace
		steps := func(n int) {
			for i := 0; i < n; i++ {
				if uncertaintyFirst && i == 0 {
					conc.Uncertainty()
				}
				c, ok := conc.Suggest()
				if !ok {
					t.Fatal("no suggestion left")
				}
				tr.suggested = append(tr.suggested, c)
				if err := conc.Assert(c, truth.ContainsCorrespondence(conc.Network().Candidate(c))); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < conc.Network().NumCandidates(); c++ {
					p, err := conc.Probability(c)
					if err != nil {
						t.Fatal(err)
					}
					tr.probs = append(tr.probs, p)
				}
			}
		}
		steps(3)
		// Bridge the first two groups' EoverI.productionDate and BBC.date:
		// the component holding the new candidate is rebuilt.
		if err := conc.AddCandidates([]schemanet.Correspondence{{A: 0, B: 5, Confidence: 0.65}}); err != nil {
			t.Fatal(err)
		}
		steps(3)
		return tr
	}
	suggestFirst, uncertaintyFirst := run(false), run(true)
	if !reflect.DeepEqual(suggestFirst.suggested, uncertaintyFirst.suggested) {
		t.Fatalf("suggestions %v (Suggest first) != %v (Uncertainty first)", suggestFirst.suggested, uncertaintyFirst.suggested)
	}
	for i, p := range suggestFirst.probs {
		if q := uncertaintyFirst.probs[i]; math.Float64bits(p) != math.Float64bits(q) {
			t.Fatalf("probability %d: %v (Suggest first) != %v (Uncertainty first)", i, p, q)
		}
	}
}
