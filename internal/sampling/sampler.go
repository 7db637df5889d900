// Package sampling implements §III of the paper: estimating
// correspondence probabilities by sampling matching instances. It
// provides the non-uniform sampler of Algorithm 3 (random walk with
// simulated-annealing acceptance), an exact enumerator of all matching
// instances for small networks (Equation 1 / Figure 7), and a sample
// store with view maintenance under user assertions (§III-B).
package sampling

import (
	"math"
	"math/rand"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
)

// Config parameterizes the sampler. The Anneal and Maximize switches
// exist for the ablation benches; the paper's algorithm corresponds to
// both being true.
type Config struct {
	// WalkSteps is k of Algorithm 3: random-walk steps per emitted
	// sample.
	WalkSteps int
	// NMin is the view-maintenance tolerance threshold n_min of §III-B.
	NMin int
	// Anneal enables the simulated-annealing acceptance probability
	// 1 − e^{−Δ}; when false every proposed move is accepted (plain
	// random walk), which tends to stay inside one sample region.
	Anneal bool
	// Maximize saturates each sample to maximality (Definition 1).
	Maximize bool
	// RestartProb is the probability that an emission starts a fresh
	// walk from a randomized maximal instance instead of continuing the
	// current chain. Restarts are a standard local-search diversification
	// that raises instance-space coverage — the quantity that governs
	// the quality of the Equation 2 estimate (see DESIGN.md).
	RestartProb float64
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{WalkSteps: 4, NMin: 200, Anneal: true, Maximize: true, RestartProb: 0.5}
}

// Sampler draws matching instances for one network and constraint set.
// A Sampler is not safe for concurrent use (it owns an rng and reuses
// walk scratch buffers, and the engine's Maximize/Repair primitives
// reuse engine-owned scratch). Distinct samplers over distinct engine
// forks (Engine.Fork) with distinct rngs may run concurrently — the
// decomposed PMN gives each component such a sampler, which is what
// makes component-disjoint assertions parallelizable.
type Sampler struct {
	engine   *constraints.Engine
	cfg      Config
	rng      *rand.Rand
	freeMask *bitset.Set // scratch: eligible-move mask, reused across walk steps
	exclMask *bitset.Set // scratch: ¬within ∪ F− for component-restricted walks
	aprMask  *bitset.Set // scratch: F+ ∩ within for component-restricted walks
	remMask  *bitset.Set // scratch: cur \ next, what a walk step's repair removed
}

// NewSampler builds a sampler. rng must not be nil.
func NewSampler(engine *constraints.Engine, cfg Config, rng *rand.Rand) *Sampler {
	if cfg.WalkSteps <= 0 {
		cfg.WalkSteps = DefaultConfig().WalkSteps
	}
	if cfg.NMin <= 0 {
		cfg.NMin = DefaultConfig().NMin
	}
	return &Sampler{engine: engine, cfg: cfg, rng: rng}
}

// Config returns the sampler's configuration.
func (s *Sampler) Config() Config { return s.cfg }

// ResetScratch drops the sampler's lazily allocated scratch masks so the
// next walk re-derives them from the engine at the current universe
// size. Callers must invoke it after the candidate universe grows.
func (s *Sampler) ResetScratch() {
	s.freeMask, s.exclMask, s.aprMask, s.remMask = nil, nil, nil, nil
}

// FeedbackWithin derives the component-restricted form of the feedback
// masks shared by every restricted operation (SampleWithin,
// EnumerateWithin, the instantiation heuristic): aprOut = F+ ∩ within
// and exclOut = ¬within ∪ F−. A nil within means no restriction and
// returns (approved, disapproved) unchanged. When non-nil, aprBuf and
// exclBuf are reused as destinations (capacity n); otherwise fresh sets
// are allocated. aprOut is nil when approved is nil.
func FeedbackWithin(n int, approved, disapproved, within, aprBuf, exclBuf *bitset.Set) (aprOut, exclOut *bitset.Set) {
	if within == nil {
		return approved, disapproved
	}
	if exclBuf == nil {
		exclBuf = bitset.New(n)
	}
	exclBuf.SetAll()
	exclBuf.DifferenceWith(within)
	if disapproved != nil {
		exclBuf.UnionWith(disapproved)
	}
	if approved == nil {
		return nil, exclBuf
	}
	if aprBuf == nil {
		aprBuf = bitset.New(n)
	}
	aprBuf.CopyFrom(approved)
	aprBuf.IntersectWith(within)
	return aprBuf, exclBuf
}

// freeCandidates recomputes the sampler's free mask — the candidates
// eligible for a walk move: within \ I \ excluded (within nil means the
// whole universe) — as word-wise passes over the scratch bitset and
// returns its population count. A uniform move is then
// freeMask.NthMember(rng.Intn(count)): the same candidate a slice-based
// scan would have picked, without the O(C) append loop.
func (s *Sampler) freeCandidates(inst, excluded, within *bitset.Set) int {
	if s.freeMask == nil {
		s.freeMask = s.engine.NewInstance()
	}
	if within != nil {
		s.freeMask.CopyFrom(within)
	} else {
		s.freeMask.SetAll()
	}
	s.freeMask.DifferenceWith(inst)
	if excluded != nil {
		s.freeMask.DifferenceWith(excluded)
	}
	return s.freeMask.Count()
}

// SampleInto runs Algorithm 3 for n emitted samples, adding each to the
// store. The walk starts from the store's last instance when available,
// otherwise from the approved set (I0 ← F+, saturated when Maximize is
// on).
func (s *Sampler) SampleInto(store *Store, approved, disapproved *bitset.Set, n int) {
	s.SampleWithin(store, approved, disapproved, nil, n)
}

// SampleWithin is SampleInto restricted to one constraint-connected
// component: the walk only ever moves on candidates of `within`, the
// repairs and saturations exclude everything outside it, and the
// emitted instances are maximal consistent subsets of the component's
// candidates. Because constraints never couple candidates across
// components (see Engine.Components), the restricted walk samples the
// component's factor of the instance space exactly as the global walk
// samples the product. within nil means the whole universe, making
// SampleInto the trivial restriction.
//
// The store may track fewer candidates than within: a piece of a
// component is walked with within = piece ∪ F+, so the walk keeps the
// approved candidates (they carry the piece's contracted violations)
// while the store holds each emission's projection onto its members,
// and a walk resumed from the store's last instance adds F+ back.
func (s *Sampler) SampleWithin(store *Store, approved, disapproved, within *bitset.Set, n int) {
	s.SamplePiece(store, approved, disapproved, within, n, 1)
}

// SamplePiece is SampleWithin for one factor of a larger walk: each of
// an emission's WalkSteps steps is taken with probability share (share
// ≥ 1 takes every step and draws nothing extra). A walk over a whole
// component spends only the piece's share of its steps inside any one
// piece, so an emission of a small piece is mostly its restart state;
// walking the piece alone with every step instead keeps applying
// Algorithm 4's deterministic victim choice to the same few members and
// collapses onto the instances that choice favours. Passing the piece's
// share of the component's free candidates keeps the per-piece dynamics
// of the whole-component walk.
func (s *Sampler) SamplePiece(store *Store, approved, disapproved, within *bitset.Set, n int, share float64) {
	// The walk excludes ¬within ∪ F− everywhere it would exclude F−
	// alone, and seeds from F+ ∩ within instead of F+. Both masks (and
	// the member list driving the restricted saturation order) are
	// fixed for the whole call, so they are computed once into scratch.
	var members []int
	if within != nil {
		// The component store already caches its member list (and its Add
		// panics on instances outside it, so tracked ⊇ within is
		// guaranteed wherever the combination is usable); fall back to
		// deriving the list from the mask for full-universe stores.
		if members = store.TrackedMembers(); members == nil {
			members = within.Members()
		}
		if s.exclMask == nil {
			s.exclMask = s.engine.NewInstance()
		}
		if s.aprMask == nil && approved != nil {
			s.aprMask = s.engine.NewInstance()
		}
	}
	apr, excluded := FeedbackWithin(s.engine.Network().NumCandidates(),
		approved, disapproved, within, s.aprMask, s.exclMask)
	fresh := func() *bitset.Set {
		inst := s.engine.NewInstance()
		if apr != nil {
			inst.UnionWith(apr)
		}
		if s.cfg.Maximize {
			s.engine.MaximizeWithin(inst, excluded, members, s.rng)
		}
		return inst
	}
	cur := store.LastInstance()
	if cur == nil {
		cur = fresh()
	} else {
		cur = cur.Clone()
		if apr != nil {
			cur.UnionWith(apr)
		}
	}

	next := cur.Clone()
	if s.cfg.Maximize && s.remMask == nil {
		s.remMask = s.engine.NewInstance()
	}
	for i := 0; i < n; i++ {
		if i > 0 && s.rng.Float64() < s.cfg.RestartProb {
			cur = fresh()
			next = cur.Clone()
		}
		for j := 0; j < s.cfg.WalkSteps; j++ {
			if share < 1 && s.rng.Float64() >= share {
				continue
			}
			nFree := s.freeCandidates(cur, excluded, within)
			if nFree == 0 {
				break
			}
			c := s.freeMask.NthMember(s.rng.Intn(nFree))
			next.CopyFrom(cur)
			s.engine.Repair(next, c, apr)
			if s.cfg.Maximize {
				// cur is maximal (a fresh saturation, an accepted step,
				// or a stored instance, all maximal under the current
				// feedback), so only what the repair removed can have
				// unblocked anything.
				s.remMask.CopyFrom(cur)
				s.remMask.DifferenceWith(next)
				s.engine.Resaturate(next, excluded, s.remMask, members, s.rng)
			}
			delta := cur.SymmetricDiffCount(next)
			accept := true
			if s.cfg.Anneal {
				accept = s.rng.Float64() < 1-math.Exp(-float64(delta))
			}
			if accept {
				cur, next = next, cur
			}
		}
		store.AddProjection(cur)
	}
}

// Sample is a convenience that creates a fresh store and fills it with n
// samples.
func (s *Sampler) Sample(approved, disapproved *bitset.Set, n int) *Store {
	store := NewStore(s.engine.Network().NumCandidates(), s.cfg.NMin)
	s.SampleInto(store, approved, disapproved, n)
	return store
}
