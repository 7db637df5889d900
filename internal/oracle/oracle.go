// Package oracle simulates the expert user of the reconciliation
// process. The paper assumes assertions are always right (§II-B); the
// GroundTruth oracle implements exactly that, while Noisy models an
// imperfect expert for robustness experiments (a non-paper extension).
package oracle

import (
	"math/rand"
	"sync"

	"schemanet/internal/schema"
)

// GroundTruth answers assertions from the dataset's selective matching.
type GroundTruth struct {
	m *schema.Matching
}

// NewGroundTruth builds an oracle over the selective matching M.
func NewGroundTruth(m *schema.Matching) *GroundTruth {
	return &GroundTruth{m: m}
}

// Assert reports whether c belongs to the selective matching.
func (o *GroundTruth) Assert(c schema.Correspondence) bool {
	return o.m.ContainsCorrespondence(c)
}

// Noisy wraps another oracle and flips each answer independently with
// probability ErrRate. Assert is safe for concurrent use when the base
// oracle is: the noise rng is guarded by an internal mutex, so fanned-
// out experiments (and the concurrent serving layer's many annotators)
// can share one Noisy without racing on the rand.Rand — a *rand.Rand is
// not safe for concurrent use, and the race is silent corruption of the
// generator state, not just nondeterminism.
type Noisy struct {
	base interface {
		Assert(schema.Correspondence) bool
	}
	errRate float64
	mu      sync.Mutex
	rng     *rand.Rand
}

// NewNoisy wraps base with the given error rate.
func NewNoisy(base interface {
	Assert(schema.Correspondence) bool
}, errRate float64, rng *rand.Rand) *Noisy {
	return &Noisy{base: base, errRate: errRate, rng: rng}
}

// Fork returns an independent Noisy over the same base oracle with its
// own deterministic noise stream. Callers that need per-annotator
// reproducibility regardless of interleaving give each goroutine a fork
// instead of contending on one shared stream.
func (o *Noisy) Fork(seed int64) *Noisy {
	return &Noisy{base: o.base, errRate: o.errRate, rng: rand.New(rand.NewSource(seed))}
}

// Assert implements the oracle contract with injected noise.
func (o *Noisy) Assert(c schema.Correspondence) bool {
	ans := o.base.Assert(c)
	o.mu.Lock()
	flip := o.rng.Float64() < o.errRate
	o.mu.Unlock()
	if flip {
		return !ans
	}
	return ans
}
