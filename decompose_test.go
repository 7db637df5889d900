package schemanet_test

import (
	"math"
	"strings"
	"testing"

	"schemanet"
)

// multiVideoNet builds `groups` disconnected copies of the §II-A video
// triangle through the public API: every copy is its own
// constraint-connected component with five candidates, so the network
// decomposes into exactly `groups` components. The ground truth selects
// each copy's {c1, c2, c3} triangle.
func multiVideoNet(t testing.TB, groups int) (*schemanet.Network, *schemanet.Matching) {
	t.Helper()
	b := schemanet.NewBuilder()
	truth := schemanet.NewMatching()
	for g := 0; g < groups; g++ {
		p := string(rune('A'+g%26)) + strings.Repeat("x", g/26)
		s1 := b.AddSchema(p+"EoverI", "productionDate")
		s2 := b.AddSchema(p+"BBC", "date")
		s3 := b.AddSchema(p+"DVDizzy", "releaseDate", "screenDate")
		b.Connect(s1, s2)
		b.Connect(s2, s3)
		b.Connect(s1, s3)
		base := schemanet.AttrID(g * 4)
		b.AddCorrespondence(base+0, base+1, 0.85)
		b.AddCorrespondence(base+1, base+2, 0.80)
		b.AddCorrespondence(base+0, base+2, 0.75)
		b.AddCorrespondence(base+1, base+3, 0.60)
		b.AddCorrespondence(base+0, base+3, 0.55)
		truth.Add(base+0, base+1)
		truth.Add(base+1, base+2)
		truth.Add(base+0, base+2)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, truth
}

// TestDecomposedMatchesMonolithicExact is the headline differential
// guarantee of the component decomposition: on a multi-component
// network under exact inference, the decomposed PMN computes
// *identical* probabilities to the monolithic single-sample-space
// reference (NewMonolithicSession, whose Whole engine keeps a trivial
// partition), after every assertion of a full reconciliation —
// including disapprovals, which trigger per-component re-enumeration on
// one side and global re-enumeration on the other.
func TestDecomposedMatchesMonolithicExact(t *testing.T) {
	net, truth := multiVideoNet(t, 3)
	dec, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := schemanet.NewMonolithicSession(net, &schemanet.Options{Inference: "exact", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Components(); got != 3 {
		t.Fatalf("decomposed session has %d components, want 3", got)
	}
	if got := mono.Components(); got != 1 {
		t.Fatalf("monolithic session has %d components, want 1", got)
	}

	compare := func(step string) {
		t.Helper()
		for c := 0; c < net.NumCandidates(); c++ {
			if dp, mp := mustProb(t, dec, c), mustProb(t, mono, c); dp != mp {
				t.Fatalf("%s: p(%d) decomposed %v != monolithic %v", step, c, dp, mp)
			}
		}
		if dh, mh := dec.Uncertainty(), mono.Uncertainty(); math.Abs(dh-mh) > 1e-12 {
			t.Fatalf("%s: H decomposed %v != monolithic %v", step, dh, mh)
		}
	}
	compare("initial")

	// Drive both sessions through the same fixed assertion sequence
	// (candidate order, oracle = ground truth) so the comparison is
	// independent of tie-breaking in Suggest.
	for c := 0; c < net.NumCandidates(); c++ {
		approve := truth.ContainsCorrespondence(net.Candidate(c))
		if err := dec.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
		if err := mono.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
		compare(net.DescribeCandidate(c))
	}

	// After full feedback both must instantiate exactly the truth.
	di, mi := dec.Instantiate(), mono.Instantiate()
	if di.Size() != truth.Size() || di.IntersectionSize(truth) != truth.Size() {
		t.Fatalf("decomposed instantiation %v != truth %v", di.Pairs(), truth.Pairs())
	}
	if mi.Size() != di.Size() || mi.IntersectionSize(di) != di.Size() {
		t.Fatalf("instantiations differ: decomposed %v, monolithic %v", di.Pairs(), mi.Pairs())
	}
	if dec.Uncertainty() != 0 || mono.Uncertainty() != 0 {
		t.Fatalf("final uncertainty %v / %v, want 0", dec.Uncertainty(), mono.Uncertainty())
	}
}

// TestMonolithicStaysWholeAcrossTopology: the monolithic reference keeps
// its one global sample space when a topology op recompiles Γ (a retire,
// then a candidate bridging two components) and keeps matching the
// decomposed session exactly.
func TestMonolithicStaysWholeAcrossTopology(t *testing.T) {
	net, _ := multiVideoNet(t, 3)
	opts := &schemanet.Options{Inference: "exact", Seed: 11}
	dec, err := schemanet.NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := schemanet.NewMonolithicSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	nc := net.NumCandidates()
	bridge := []schemanet.Correspondence{{A: net.Candidate(0).A, B: net.Candidate(nc - 1).B, Confidence: 0.6}}
	ops := []struct {
		name string
		run  func(s *schemanet.Session) error
	}{
		{"retire", func(s *schemanet.Session) error { return s.RetireCandidate(1) }},
		{"bridge", func(s *schemanet.Session) error { return s.AddCandidates(bridge) }},
	}
	for _, op := range ops {
		if err := op.run(dec); err != nil {
			t.Fatal(err)
		}
		if err := op.run(mono); err != nil {
			t.Fatal(err)
		}
		if got := mono.Components(); got != 1 {
			t.Fatalf("after %s: monolithic session has %d components, want 1", op.name, got)
		}
		if dec.Components() < 2 {
			t.Fatalf("after %s: decomposed session has %d components; the fixture no longer decomposes", op.name, dec.Components())
		}
		for c := 0; c < mono.Network().NumCandidates(); c++ {
			if dp, mp := mustProb(t, dec, c), mustProb(t, mono, c); dp != mp {
				t.Fatalf("after %s: p(%d) decomposed %v != monolithic %v", op.name, c, dp, mp)
			}
		}
	}
}

// TestDecomposedSuggestWorksPerComponent: a decomposed session must
// reconcile end to end — suggestions drain all components' uncertainty,
// not just the first component's.
func TestDecomposedSuggestWorksPerComponent(t *testing.T) {
	net, truth := multiVideoNet(t, 4)
	s, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", Seed: 3})
	if err != nil {
		t.Fatal(err)
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
	if s.Uncertainty() != 0 {
		t.Fatalf("uncertainty %v after draining suggestions", s.Uncertainty())
	}
	trusted := s.Instantiate()
	if trusted.IntersectionSize(truth) != truth.Size() || trusted.Size() != truth.Size() {
		t.Fatalf("instantiation %v != truth %v", trusted.Pairs(), truth.Pairs())
	}
}

// TestDecomposedSampledStatisticallyEquivalent: with sampled
// probabilities on a multi-component network small enough that every
// component's sample set completes (each triangle has 4 instances,
// far below n_min), the decomposed estimates equal the exact
// per-component probabilities — and so do the monolithic reference's
// (NewMonolithicSession) when its global store completes. 3 components
// give 4³ = 64 global instances, still below the default n_min of 200,
// so both sides are exact here.
func TestDecomposedSampledStatisticallyEquivalent(t *testing.T) {
	net, _ := multiVideoNet(t, 3)
	exact, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	opts := &schemanet.Options{Seed: 7, Samples: 400}
	for _, mode := range []struct {
		name string
		new  func(*schemanet.Network, *schemanet.Options) (*schemanet.Session, error)
	}{
		{"decomposed", schemanet.NewSession},
		{"monolithic", schemanet.NewMonolithicSession},
	} {
		s, err := mode.new(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if mode.name == "monolithic" && s.Components() != 1 {
			t.Fatalf("monolithic reference has %d components, want 1", s.Components())
		}
		for c := 0; c < net.NumCandidates(); c++ {
			if got, want := mustProb(t, s, c), mustProb(t, exact, c); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s: p(%d) = %v, want %v (store should cover all instances)",
					mode.name, c, got, want)
			}
		}
	}
}
