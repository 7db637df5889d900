package schemanet_test

// Tests for the refill budget (Options.Samples / MinSamples /
// Convergence): bit-reproducibility of pinned-seed sampling streams,
// and validation of the budget options. Accuracy against exact
// inference is sampled_exact_test.go's contract.

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
// of pinned-seed sampled sessions: each default session must equal its
// twin that spells the default knobs out, and single-chunk budgets
// (MinSamples = Samples, one SampleWithin call per round) are pinned
// too. A change to the sampler's rng stream re-pins these hashes on
// purpose.
func TestFixedBudgetBitReproducible(t *testing.T) {
	d := adaptiveNet(t)
	for _, tc := range []struct {
		name     string
		opts     schemanet.Options
		hash     uint64
		residual float64
	}{
		{"default-sampled", schemanet.Options{Inference: "sampled", Seed: 7},
			0xdacf078268461d02, 38.37878369322667},
		{"pinned-min-max", schemanet.Options{Inference: "sampled", Samples: 500, MinSamples: 100, Convergence: 0.01, Seed: 7},
			0xdacf078268461d02, 38.37878369322667},
		{"single-chunk-500", schemanet.Options{Inference: "sampled", MinSamples: 500, Seed: 7},
			0xc78b5308ad0c7ab2, 38.37878369322667},
		{"fixed-200", schemanet.Options{Inference: "sampled", Samples: 200, Seed: 11},
			0x96c70bc736bc8c15, 37.225716662038465},
		{"pinned-200", schemanet.Options{Inference: "sampled", Samples: 200, MinSamples: 100, Convergence: 0.01, Seed: 11},
			0x96c70bc736bc8c15, 37.225716662038465},
		// At a 200 cap every walked piece of this profile saturates
		// whatever the chunking, so the single-chunk run lands on the
		// same stores as the chunked one.
		{"single-chunk-200", schemanet.Options{Inference: "sampled", Samples: 200, MinSamples: 200, Seed: 11},
			0x96c70bc736bc8c15, 37.225716662038465},
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

// TestAdaptiveBudgetOptionValidation covers the budget knobs'
// validation: field-named non-negativity errors, MinSamples bounded by
// the Samples cap (explicit or default), and the Convergence interval.
func TestAdaptiveBudgetOptionValidation(t *testing.T) {
	d := adaptiveNet(t)
	for _, tc := range []struct {
		name string
		opts schemanet.Options
		want string
	}{
		{"negative-min", schemanet.Options{MinSamples: -1}, "Options.MinSamples must be non-negative"},
		{"negative-max", schemanet.Options{Samples: -5}, "Options.Samples must be non-negative"},
		{"min-over-max", schemanet.Options{MinSamples: 300, Samples: 100},
			"Options.MinSamples (300) must not exceed the Samples cap (100)"},
		{"min-over-default-max", schemanet.Options{MinSamples: 800},
			"Options.MinSamples (800) must not exceed the Samples cap (500)"},
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
	// Valid combinations must construct; unset knobs take defaults.
	for _, opts := range []schemanet.Options{
		{MinSamples: 50},
		{Samples: 800},
		{Convergence: 0.02},
		{MinSamples: 100, Samples: 100},
	} {
		o := opts
		if _, err := schemanet.NewSession(d.Network, &o); err != nil {
			t.Fatalf("NewSession(%+v) = %v, want ok", o, err)
		}
	}
}
