package core

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"schemanet/internal/bitset"
	"schemanet/internal/sampling"
)

// InferenceMode identifies a per-component estimation backend of the
// probabilistic matching network.
type InferenceMode int

const (
	// InferSampled estimates probabilities from the non-uniform sampler's
	// stores (§III-B) — the paper's algorithm, and the zero value.
	InferSampled InferenceMode = iota
	// InferExact enumerates every live piece of every component
	// (Equation 1) and maintains the lists incrementally under
	// assertions — noise-free probabilities, entropy, and information
	// gain.
	InferExact
	// InferAuto enumerates every live piece whose instance space fits
	// Config.ExactBudget and samples the rest. Only a Config value —
	// ComponentInference reports InferExact for a component whose whole
	// instance space enumerates within the budget at its current
	// feedback, and InferSampled otherwise.
	InferAuto
)

// String returns "sampled", "exact", or "auto".
func (m InferenceMode) String() string {
	switch m {
	case InferSampled:
		return "sampled"
	case InferExact:
		return "exact"
	case InferAuto:
		return "auto"
	default:
		return fmt.Sprintf("InferenceMode(%d)", int(m))
	}
}

// DefaultExactBudget is the instance budget InferAuto uses when
// Config.ExactBudget is zero: live pieces whose instance space
// enumerates within it serve exact probabilities; the rest sample.
const DefaultExactBudget = 1024

// ErrExactBudgetExceeded reports a component whose matching-instance
// enumeration exceeded the exact-inference budget under forced
// InferExact (under InferAuto an overflowing piece is sampled
// instead). It wraps the sampling layer's overflow so callers get one
// documented errors.Is target through the public API.
var ErrExactBudgetExceeded = errors.New("core: exact inference budget exceeded")

// termAt applies the feedback override to probs[c] and returns its
// binary-entropy contribution.
func termAt(probs []float64, approved, disapproved *bitset.Set, c int) float64 {
	if approved.Has(c) {
		probs[c] = 1
		return 0
	}
	if disapproved.Has(c) {
		probs[c] = 0
		return 0
	}
	return BinaryEntropy(probs[c])
}

// DefaultMinSamples is the emission chunk size of the refill loop when
// Config.MinSamples is unset: small enough that a near-resolved
// component stops after a fraction of the per-round cap, large enough
// that one chunk's marginal movement is a meaningful convergence signal
// at the default n_min.
const DefaultMinSamples = 100

// DefaultConvergence is the stopping threshold ε when
// Config.Convergence is unset: a refill round ends once no tracked
// marginal moved by more than ε across one chunk.
const DefaultConvergence = 0.01

// budgetPlan is the resolved per-round refill budget of a PMN's sampled
// components: emissions come in chunks of min (the first chunk raised
// to the store's n_min deficit), capped at max per round, with an
// early stop once the store's marginals move by at most conv across a
// chunk. min == max is a single-chunk round: one SampleWithin(max)
// call.
type budgetPlan struct {
	min, max int
	conv     float64
}

// resolveBudget turns Config's budget knobs into a plan: Samples is the
// per-round cap, MinSamples (default DefaultMinSamples, clamped to the
// cap) the chunk size, Convergence (default DefaultConvergence) the
// stopping threshold. cfg.Samples must already be defaulted (see New).
func resolveBudget(cfg Config) budgetPlan {
	min := cfg.MinSamples
	if min <= 0 {
		min = DefaultMinSamples
	}
	if min > cfg.Samples {
		min = cfg.Samples
	}
	conv := cfg.Convergence
	if conv <= 0 {
		conv = DefaultConvergence
	}
	return budgetPlan{min: min, max: cfg.Samples, conv: conv}
}

// maxAbsDelta returns max_j |a[j] − b[j]| over equal-length vectors.
func maxAbsDelta(a, b []float64) float64 {
	d := 0.0
	for i, av := range a {
		x := av - b[i]
		if x < 0 {
			x = -x
		}
		if x > d {
			d = x
		}
	}
	return d
}

// exactBudget resolves Config.ExactBudget: under InferAuto, zero means
// DefaultExactBudget; under forced InferExact, zero means unlimited
// (an unbounded enumeration must not spuriously overflow).
func (p *PMN) exactBudget() int {
	if p.cfg.ExactBudget == 0 && p.cfg.Inference == InferAuto {
		return DefaultExactBudget
	}
	return p.cfg.ExactBudget
}

// maxAttemptFree bounds the free-candidate count at which an InferAuto
// enumeration of a whole component, or of a piece, is attempted, as a
// pure function of the budget: a set of many free candidates almost
// certainly overflows (instance counts grow combinatorially in the free
// set), so attempting it would burn the budgeted work cap for nothing.
// Purity matters for more than cost: ComponentInference depends only on
// the current feedback, so serial execution, a restore built under the
// saved feedback (NewWithHistory), batch replay, and concurrent
// interleavings all report the same mode.
func maxAttemptFree(budget int) int {
	return 3*bits.Len(uint(budget)) + 8
}

// enumerateWhole enumerates the component's whole instance space under
// its current feedback within its budget (0 = unlimited), returning
// sampling.ErrTooManyInstances on overflow. The instances are dropped:
// only whether they fit matters, and the pieces serve the component.
func (c *component) enumerateWhole() error {
	_, err := sampling.EnumerateWithin(c.engine, c.approved, c.disapproved, c.mask, c.budget)
	return err
}

// wholeFits is the InferAuto rule for the component at its current
// feedback: fewer free (unasserted) members than the budget, at most
// maxAttemptFree of them, and a whole-component enumeration that fits
// the budget. Success is monotone along an assertion path (instances
// and search work only shrink), so the answer never flips back and is
// kept once it holds; a component rebuilt by a topology change starts
// over. When it holds, every live piece fits too — a piece has no more
// instances, search nodes or free members than its component — so the
// pieces already serve the component exactly.
func (c *component) wholeFits() bool {
	if !c.fits {
		free := len(c.members) - c.approved.Count() - c.disapproved.Count()
		c.fits = free < c.budget && free <= maxAttemptFree(c.budget) && c.enumerateWhole() == nil
	}
	return c.fits
}

// stream is a component's base sampler seed: a decomposed PMN draws one
// seed per component (in component order, or from the member content
// on a topology rebuild), and each piece walks a stream derived from it
// and the piece's members (pieceSeed). shared non-nil is the session
// rng of a trivial partition, which the base seed is drawn from only
// when the component may walk (see newComponent).
type stream struct {
	shared *rand.Rand
	seed   int64
}

// nmin resolves the sampler's n_min.
func (p *PMN) nmin() int {
	if n := p.cfg.Sampler.NMin; n > 0 {
		return n
	}
	return sampling.DefaultConfig().NMin
}
