package schemanet_test

// Tests for the adaptive sampling budget (Options.MinSamples /
// MaxSamples / Convergence): bit-reproducibility of the fixed-budget
// path across the adaptive-refill change, validation of the new
// options, and the accuracy-parity / effort-saving differentials of the
// adaptive loop against the fixed budget.

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"schemanet"
	"schemanet/internal/datagen"
)

// adaptiveNet builds the 256-candidate multicomp network the golden
// hashes below were captured on.
func adaptiveNet(t testing.TB) *schemanet.Dataset {
	t.Helper()
	d, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
		TargetCount: 256, Precision: 0.67, ConflictBias: 0.3, StrictCount: true,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// trajectoryHash runs a 60-step suggest/assert loop (oracle = ground
// truth) and folds every candidate probability after every step into an
// FNV-64a hash — a full-trajectory fingerprint of the session's
// probability stream.
func trajectoryHash(t testing.TB, d *schemanet.Dataset, opts *schemanet.Options) (uint64, float64) {
	t.Helper()
	s, err := schemanet.NewSession(d.Network, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := 0; i < 60; i++ {
		c, ok := s.Suggest()
		if !ok {
			break
		}
		if err := s.Assert(c, d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))); err != nil {
			t.Fatal(err)
		}
		var buf [8]byte
		for cc := 0; cc < d.Network.NumCandidates(); cc++ {
			p, err := s.Probability(cc)
			if err != nil {
				t.Fatal(err)
			}
			bits := math.Float64bits(p)
			for b := 0; b < 8; b++ {
				buf[b] = byte(bits >> (8 * b))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64(), s.Uncertainty()
}

// TestFixedBudgetBitReproducible pins the full probability trajectory
// of pinned-seed sampled sessions: a session using only the legacy
// Samples knob — and equally one that pins MinSamples = MaxSamples =
// Samples — must consume the component rng streams bit-identically.
// This is the "reuse disabled ⇒ bit-reproducible" half of the
// adaptive-budget contract. The hashes were re-captured when the walk
// step switched from a full saturation pass to Engine.Resaturate, which
// keeps each step's distribution but draws fewer random numbers.
func TestFixedBudgetBitReproducible(t *testing.T) {
	d := adaptiveNet(t)
	for _, tc := range []struct {
		name     string
		opts     schemanet.Options
		hash     uint64
		residual float64
	}{
		{"default-sampled", schemanet.Options{Inference: "sampled", Seed: 7},
			0xa668501b11d294a4, 32.441939614863635},
		{"pinned-min-max", schemanet.Options{Inference: "sampled", MinSamples: 500, MaxSamples: 500, Seed: 7},
			0xa668501b11d294a4, 32.441939614863635},
		{"fixed-200", schemanet.Options{Inference: "sampled", Samples: 200, Seed: 11},
			0x7591e511737d5490, 35.6238961910632},
		{"pinned-200", schemanet.Options{Inference: "sampled", Samples: 200, MinSamples: 200, MaxSamples: 200, Seed: 11},
			0x7591e511737d5490, 35.6238961910632},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			hash, unc := trajectoryHash(t, d, &opts)
			if hash != tc.hash {
				t.Errorf("trajectory hash = %#x, want %#x (pinned golden)", hash, tc.hash)
			}
			if unc != tc.residual {
				t.Errorf("residual uncertainty = %v, want %v", unc, tc.residual)
			}
		})
	}
}

// TestAdaptiveBudgetOptionValidation covers the new knobs' validation:
// field-named non-negativity errors, the MinSamples ≤ MaxSamples
// ordering, and the Convergence interval.
func TestAdaptiveBudgetOptionValidation(t *testing.T) {
	d := adaptiveNet(t)
	for _, tc := range []struct {
		name string
		opts schemanet.Options
		want string
	}{
		{"negative-min", schemanet.Options{MinSamples: -1}, "Options.MinSamples must be non-negative"},
		{"negative-max", schemanet.Options{MaxSamples: -5}, "Options.MaxSamples must be non-negative"},
		{"min-over-max", schemanet.Options{MinSamples: 300, MaxSamples: 100},
			"Options.MinSamples (300) must not exceed Options.MaxSamples (100)"},
		{"negative-convergence", schemanet.Options{Convergence: -0.5}, "Options.Convergence must be in [0,1]"},
		{"convergence-over-one", schemanet.Options{Convergence: 1.5}, "Options.Convergence must be in [0,1]"},
		{"convergence-nan", schemanet.Options{Convergence: math.NaN()}, "Options.Convergence must be in [0,1]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			_, err := schemanet.NewSession(d.Network, &opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewSession error = %v, want containing %q", err, tc.want)
			}
		})
	}
	// Valid combinations must construct: each knob alone enables the
	// adaptive loop with defaults for the rest.
	for _, opts := range []schemanet.Options{
		{MinSamples: 50},
		{MaxSamples: 800},
		{Convergence: 0.02},
		{MinSamples: 100, MaxSamples: 100},
	} {
		o := opts
		if _, err := schemanet.NewSession(d.Network, &o); err != nil {
			t.Fatalf("NewSession(%+v) = %v, want ok", o, err)
		}
	}
}

// assertSchedule asserts every third candidate (ground-truth oracle)
// against s — a deterministic, suggestion-independent schedule so
// differential runs see identical assertion streams.
func assertSchedule(t testing.TB, s *schemanet.Session, d *schemanet.Dataset) []int {
	t.Helper()
	var asserted []int
	for c := 0; c < d.Network.NumCandidates(); c += 3 {
		if err := s.Assert(c, d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))); err != nil {
			t.Fatal(err)
		}
		asserted = append(asserted, c)
	}
	return asserted
}

// TestAdaptiveAccuracyParityAndEffort is the differential half of the
// adaptive-budget contract: on the multicomp network, the adaptive
// budget must (1) request strictly fewer walk emissions than the fixed
// budget it is capped at, and (2) estimate probabilities as accurately
// — mean absolute deviation from the exact posterior on par with the
// fixed path.
func TestAdaptiveAccuracyParityAndEffort(t *testing.T) {
	d := adaptiveNet(t)
	newSess := func(opts schemanet.Options) *schemanet.Session {
		s, err := schemanet.NewSession(d.Network, &opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fixed := newSess(schemanet.Options{Inference: "sampled", Seed: 5})
	adaptive := newSess(schemanet.Options{Inference: "sampled", MinSamples: 100, Convergence: 0.01, Seed: 5})
	exact := newSess(schemanet.Options{Inference: "exact", Seed: 5})

	assertSchedule(t, fixed, d)
	assertSchedule(t, adaptive, d)
	assertSchedule(t, exact, d)

	if fe, ae := fixed.SamplingEmissions(), adaptive.SamplingEmissions(); ae >= fe {
		t.Errorf("adaptive requested %d emissions, fixed %d — adaptive must be cheaper", ae, fe)
	}
	mad := func(s *schemanet.Session) float64 {
		sum, n := 0.0, 0
		for c := 0; c < d.Network.NumCandidates(); c++ {
			ps, err1 := s.Probability(c)
			pe, err2 := exact.Probability(c)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			sum += math.Abs(ps - pe)
			n++
		}
		return sum / float64(n)
	}
	madFixed, madAdaptive := mad(fixed), mad(adaptive)
	t.Logf("MAD vs exact: fixed=%.4f adaptive=%.4f; emissions: fixed=%d adaptive=%d",
		madFixed, madAdaptive, fixed.SamplingEmissions(), adaptive.SamplingEmissions())
	// Parity, not superiority: adaptive may trade a little estimate
	// noise for a lot of effort; it must stay in the fixed path's
	// accuracy class.
	if madAdaptive > madFixed*1.5+0.01 {
		t.Errorf("adaptive MAD %.4f not on par with fixed MAD %.4f", madAdaptive, madFixed)
	}
	if madAdaptive > 0.05 {
		t.Errorf("adaptive MAD %.4f exceeds absolute sanity bound 0.05", madAdaptive)
	}
}
