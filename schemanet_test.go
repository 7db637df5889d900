package schemanet_test

import (
	"errors"
	"strings"
	"testing"

	"schemanet"
	"schemanet/internal/wal"
)

// prober is the read interface shared by Session and ConcurrentSession.
type prober interface {
	Probability(c int) (float64, error)
}

// mustProb reads a probability, failing the test on an invalid index.
func mustProb(t testing.TB, s prober, c int) float64 {
	t.Helper()
	p, err := s.Probability(c)
	if err != nil {
		t.Fatalf("Probability(%d): %v", c, err)
	}
	return p
}

// videoNet builds the §II-A example through the public API.
func videoNet(t testing.TB) (*schemanet.Network, *schemanet.Matching) {
	t.Helper()
	b := schemanet.NewBuilder()
	b.AddSchema("EoverI", "productionDate")
	b.AddSchema("BBC", "date")
	b.AddSchema("DVDizzy", "releaseDate", "screenDate")
	b.ConnectAll()
	b.AddCorrespondence(0, 1, 0.85)
	b.AddCorrespondence(1, 2, 0.80)
	b.AddCorrespondence(0, 2, 0.75)
	b.AddCorrespondence(1, 3, 0.60)
	b.AddCorrespondence(0, 3, 0.55)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	truth := schemanet.NewMatching()
	truth.Add(0, 1)
	truth.Add(1, 2)
	truth.Add(0, 2)
	return net, truth
}

func TestSessionEndToEnd(t *testing.T) {
	net, truth := videoNet(t)
	s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Violations() != 4 {
		t.Fatalf("Violations = %d, want 4", s.Violations())
	}
	if s.Uncertainty() == 0 {
		t.Fatal("fresh network should be uncertain")
	}
	steps := 0
	for s.Uncertainty() > 0 {
		c, ok := s.Suggest()
		if !ok {
			break
		}
		if err := s.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > net.NumCandidates() {
			t.Fatal("reconciliation did not converge")
		}
	}
	trusted := s.Instantiate()
	if trusted.Size() != 3 {
		t.Fatalf("trusted matching size = %d, want 3", trusted.Size())
	}
	if trusted.IntersectionSize(truth) != 3 {
		t.Fatalf("trusted matching differs from truth: %v", trusted.Pairs())
	}
	if s.Effort() <= 0 || s.Effort() > 1 {
		t.Fatalf("Effort = %v out of range", s.Effort())
	}
}

func TestSessionInstantiateBeforeAnyFeedback(t *testing.T) {
	net, _ := videoNet(t)
	s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	trusted := s.Instantiate()
	if trusted.Size() == 0 {
		t.Fatal("anytime instantiation returned an empty matching")
	}
}

func TestSessionRequiresCandidates(t *testing.T) {
	b := schemanet.NewBuilder()
	b.AddSchema("a", "x")
	b.AddSchema("b", "y")
	b.ConnectAll()
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := schemanet.NewSession(net, nil); err == nil {
		t.Fatal("want error for candidate-less network")
	}
}

func TestSessionRequiresConstraints(t *testing.T) {
	net, _ := videoNet(t)
	_, err := schemanet.NewSession(net, &schemanet.Options{
		DisableCycle:    true,
		DisableOneToOne: true,
	})
	if err == nil {
		t.Fatal("want error when all constraints disabled")
	}
}

func TestSessionDescribe(t *testing.T) {
	net, _ := videoNet(t)
	s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Describe(0); !strings.Contains(d, "↔") {
		t.Fatalf("Describe = %q", d)
	}
}

func TestSessionDoubleAssertFails(t *testing.T) {
	net, _ := videoNet(t)
	s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(0, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(0, false); !errors.Is(err, schemanet.ErrAlreadyAsserted) {
		t.Fatalf("double assert err = %v, want ErrAlreadyAsserted", err)
	}
}

// TestSessionRejectsInvalidOptions: negative knobs used to flow into
// the core configuration unchecked (a negative Samples silently
// disabled resampling, a negative Workers accidentally meant "all
// CPUs"); NewSession must reject each with a descriptive error naming
// the field.
func TestSessionRejectsInvalidOptions(t *testing.T) {
	net, _ := videoNet(t)
	cases := []struct {
		field string
		opts  schemanet.Options
	}{
		{"Samples", schemanet.Options{Samples: -1}},
		{"Workers", schemanet.Options{Workers: -2}},
		{"MaxCycleLen", schemanet.Options{MaxCycleLen: -1}},
		{"InstantiateIterations", schemanet.Options{InstantiateIterations: -10}},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			_, err := schemanet.NewSession(net, &tc.opts)
			if err == nil {
				t.Fatalf("NewSession accepted negative %s", tc.field)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name the field %s", err, tc.field)
			}
			if _, err := schemanet.NewConcurrentSession(net, &tc.opts); err == nil {
				t.Fatalf("NewConcurrentSession accepted negative %s", tc.field)
			}
		})
	}
	// Valid positive values still pass.
	if _, err := schemanet.NewSession(net, &schemanet.Options{
		Samples: 50, Workers: 2, Inference: "exact",
	}); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// TestSessionUnknownCandidate: the serving layer must return
// ErrUnknownCandidate for out-of-universe indices — never panic with a
// bare index-out-of-range.
func TestSessionUnknownCandidate(t *testing.T) {
	net, _ := videoNet(t)
	s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{-1, net.NumCandidates(), net.NumCandidates() + 100} {
		if err := s.Assert(c, true); !errors.Is(err, schemanet.ErrUnknownCandidate) {
			t.Fatalf("Assert(%d) err = %v, want ErrUnknownCandidate", c, err)
		}
		if _, err := s.Probability(c); !errors.Is(err, schemanet.ErrUnknownCandidate) {
			t.Fatalf("Probability(%d) err = %v, want ErrUnknownCandidate", c, err)
		}
		if _, err := s.ComponentOf(c); !errors.Is(err, schemanet.ErrUnknownCandidate) {
			t.Fatalf("ComponentOf(%d) err = %v, want ErrUnknownCandidate", c, err)
		}
		if d := s.Describe(c); !strings.Contains(d, "unknown candidate") {
			t.Fatalf("Describe(%d) = %q, want a placeholder (and no panic)", c, d)
		}
	}
	// Valid indices keep working after the rejections.
	if _, err := s.Probability(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(0, true); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDatasetProfiles(t *testing.T) {
	for _, name := range []string{"bp", "po", "uaf", "webform"} {
		d, err := schemanet.GenerateDataset(name, 0.15, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Network.NumSchemas() < 2 {
			t.Fatalf("%s: too few schemas", name)
		}
		if d.GroundTruth == nil || d.GroundTruth.Size() == 0 {
			t.Fatalf("%s: no ground truth", name)
		}
	}
	if _, err := schemanet.GenerateDataset("nope", 1, 1); err == nil {
		t.Fatal("want error for unknown profile")
	}
}

func TestMatchThroughFacade(t *testing.T) {
	d, err := schemanet.GenerateDataset("bp", 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []schemanet.Matcher{schemanet.COMALike(), schemanet.AMCLike()} {
		net, err := schemanet.Match(d.Network, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if net.NumCandidates() == 0 {
			t.Fatalf("%s produced no candidates", m.Name())
		}
	}
}

func TestSessionStrategyOption(t *testing.T) {
	net, truth := videoNet(t)
	for _, name := range []string{"", "info-gain", "random", "least-certain", "by-confidence"} {
		s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", Strategy: name, Seed: 4})
		if err != nil {
			t.Fatalf("strategy %q: %v", name, err)
		}
		c, ok := s.Suggest()
		if !ok {
			t.Fatalf("strategy %q suggested nothing", name)
		}
		if err := s.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatalf("strategy %q: %v", name, err)
		}
	}
	if _, err := schemanet.NewSession(net, &schemanet.Options{Strategy: "nope"}); err == nil {
		t.Fatal("want error for unknown strategy")
	}
}

func TestSessionExclusivePairs(t *testing.T) {
	net, _ := videoNet(t)
	// Declaring releaseDate (4... attr ids: 0 productionDate, 1 date,
	// 2 releaseDate, 3 screenDate) exclusive with screenDate forbids
	// instances covering both.
	s, err := schemanet.NewSession(net, &schemanet.Options{
		Inference:      "exact",
		Seed:           5,
		ExclusivePairs: [][2]schemanet.AttrID{{2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The extra constraint adds violations beyond the base four.
	if s.Violations() <= 4 {
		t.Fatalf("Violations = %d, want > 4 with the exclusion", s.Violations())
	}
	trusted := s.Instantiate()
	coversRelease, coversScreen := false, false
	for _, p := range trusted.Pairs() {
		if p[0] == 2 || p[1] == 2 {
			coversRelease = true
		}
		if p[0] == 3 || p[1] == 3 {
			coversScreen = true
		}
	}
	if coversRelease && coversScreen {
		t.Fatalf("instantiation covers both exclusive attributes: %v", trusted.Pairs())
	}
}

// TestExclusivePairsOutOfRangeRejected: an ExclusivePairs entry naming
// an attribute outside the network must come back as an error naming
// the offending entry — from both constructors, before any constraint
// is compiled — never as an index panic. A valid pair is still
// accepted.
func TestExclusivePairsOutOfRangeRejected(t *testing.T) {
	net, _ := videoNet(t) // attributes 0..3
	for _, tc := range []struct {
		name  string
		pairs [][2]schemanet.AttrID
		entry string // "" = must be accepted
	}{
		{"valid", [][2]schemanet.AttrID{{2, 3}}, ""},
		{"too-large", [][2]schemanet.AttrID{{2, 999}}, "Options.ExclusivePairs[0]"},
		{"negative", [][2]schemanet.AttrID{{-1, 2}}, "Options.ExclusivePairs[0]"},
		{"one-past-end", [][2]schemanet.AttrID{{0, 1}, {4, 0}}, "Options.ExclusivePairs[1]"},
	} {
		opts := &schemanet.Options{Seed: 1, ExclusivePairs: tc.pairs}
		_, errPlain := schemanet.NewSession(net, opts)
		_, errConc := schemanet.NewConcurrentSession(net, opts)
		for _, r := range []struct {
			surface string
			err     error
		}{{"NewSession", errPlain}, {"NewConcurrentSession", errConc}} {
			surface, err := r.surface, r.err
			switch {
			case tc.entry == "" && err != nil:
				t.Errorf("%s/%s: %v, want accepted", tc.name, surface, err)
			case tc.entry != "" && (err == nil || !strings.Contains(err.Error(), tc.entry)):
				t.Errorf("%s/%s: err = %v, want it to name %s", tc.name, surface, err, tc.entry)
			}
		}
	}
}

func TestSessionOnMatchedNetwork(t *testing.T) {
	d, err := schemanet.GenerateDataset("bp", 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	net, err := schemanet.Match(d.Network, schemanet.COMALike())
	if err != nil {
		t.Fatal(err)
	}
	s, err := schemanet.NewSession(net, &schemanet.Options{Seed: 9, Samples: 150})
	if err != nil {
		t.Fatal(err)
	}
	h0 := s.Uncertainty()
	// A 15% budget must reduce uncertainty and keep instantiation valid.
	budget := net.NumCandidates() * 15 / 100
	for i := 0; i < budget; i++ {
		c, ok := s.Suggest()
		if !ok {
			break
		}
		if err := s.Assert(c, d.GroundTruth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatal(err)
		}
	}
	if h0 > 0 && s.Uncertainty() >= h0 {
		t.Fatalf("uncertainty did not drop: %v -> %v", h0, s.Uncertainty())
	}
	trusted := s.Instantiate()
	if trusted.Size() == 0 {
		t.Fatal("empty instantiation")
	}
	inter := trusted.IntersectionSize(d.GroundTruth)
	prec := float64(inter) / float64(trusted.Size())
	if prec < 0.5 {
		t.Fatalf("instantiated precision %.3f suspiciously low", prec)
	}
}

// TestInstantiateKeepsApprovals: under "sampled", approving the video
// network's three true correspondences leaves its one component with no
// live piece and no single live member, and Instantiate must still
// return the approvals — on every session surface, and after a full
// Suggest/Assert reconciliation.
func TestInstantiateKeepsApprovals(t *testing.T) {
	net, truth := videoNet(t)
	opts := &schemanet.Options{Inference: "sampled", Seed: 1}
	s, err := schemanet.NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := schemanet.NewConcurrentSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := schemanet.OpenStore("store", net, &schemanet.StoreOptions{Session: opts, FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds, err := st.Session("video")
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, m *schemanet.Matching) {
		t.Helper()
		if m.Size() != truth.Size() || m.IntersectionSize(truth) != truth.Size() {
			t.Fatalf("%s: Instantiate returned %v, want the approved %v", name, m.Pairs(), truth.Pairs())
		}
	}
	for _, sf := range []struct {
		name        string
		assert      func(c int, correct bool) error
		instantiate func() (*schemanet.Matching, error)
	}{
		{"Session", s.Assert, func() (*schemanet.Matching, error) { return s.Instantiate(), nil }},
		{"ConcurrentSession", cs.Assert, func() (*schemanet.Matching, error) { return cs.Instantiate(), nil }},
		{"DurableSession", ds.Assert, ds.Instantiate},
	} {
		for c := 0; c < net.NumCandidates(); c++ {
			if truth.ContainsCorrespondence(net.Candidate(c)) {
				if err := sf.assert(c, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		m, err := sf.instantiate()
		if err != nil {
			t.Fatal(err)
		}
		check(sf.name, m)
	}

	r, err := schemanet.NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	for r.Uncertainty() > 0 {
		c, ok := r.Suggest()
		if !ok {
			break
		}
		if err := r.Assert(c, truth.ContainsCorrespondence(net.Candidate(c))); err != nil {
			t.Fatal(err)
		}
	}
	check("reconciled Session", r.Instantiate())
}
