package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randProbs draws a random probability vector including exact 0/1 mass.
func randProbs(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch r.Intn(4) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = 1
		default:
			out[i] = r.Float64()
		}
	}
	return out
}

// TestQuickEntropyBounds: 0 ≤ H(C,P) ≤ |C| for any probability vector,
// with equality to |C| only at the all-½ vector.
func TestQuickEntropyBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		probs := randProbs(r, n)
		h := EntropyOf(probs)
		return h >= 0 && h <= float64(n)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEntropyIgnoresCertain: H(C,P) = H({c | 0 < p_c < 1}, P), the
// paper's observation below Equation 3.
func TestQuickEntropyIgnoresCertain(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		probs := randProbs(r, n)
		var uncertain []float64
		for _, p := range probs {
			if p > 0 && p < 1 {
				uncertain = append(uncertain, p)
			}
		}
		return EntropyOf(probs) == EntropyOf(uncertain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEntropyMonotoneUnderCertainty: resolving any single
// correspondence (setting its probability to 0 or 1) never increases
// the network uncertainty.
func TestQuickEntropyMonotoneUnderCertainty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		probs := randProbs(r, n)
		h := EntropyOf(probs)
		i := r.Intn(n)
		resolved := append([]float64(nil), probs...)
		if r.Intn(2) == 0 {
			resolved[i] = 0
		} else {
			resolved[i] = 1
		}
		return EntropyOf(resolved) <= h+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInformationGainBounded: on the exact video network, IG(c) is
// within [0, H] for every candidate in every reachable feedback state
// explored by random assertion sequences.
func TestQuickInformationGainBounded(t *testing.T) {
	e, _ := buildVideoNet(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := exactPMN(t, e, seed)
		for {
			h := p.Entropy()
			for c := 0; c < e.Network().NumCandidates(); c++ {
				ig := p.InformationGain(c)
				if ig < 0 || ig > h+1e-9 {
					t.Logf("seed %d: IG(%d) = %v outside [0, %v]", seed, c, ig, h)
					return false
				}
			}
			u := p.Uncertain()
			if len(u) == 0 {
				return true
			}
			c := u[r.Intn(len(u))]
			if err := p.Assert(c, r.Intn(2) == 0); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// EntropyOf computes the network uncertainty H(C, P) of Equation 3: the
// sum of binary entropies over all candidates. Certain candidates
// (p ∈ {0, 1}) contribute nothing, matching the paper's observation that
// H(C, P) = H({c | 0 < p_c < 1}, P).
func EntropyOf(probs []float64) float64 {
	h := 0.0
	for _, p := range probs {
		h += BinaryEntropy(p)
	}
	return h
}
