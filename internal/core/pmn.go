package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/sampling"
	"schemanet/internal/schema"
)

// Config parameterizes probability computation for a probabilistic
// matching network.
type Config struct {
	// Sampler configures the non-uniform sampler (§III-B).
	Sampler sampling.Config
	// Samples is the number of walk emissions per (re)sampling round.
	// In a decomposed PMN each component gets a full round of its own.
	Samples int
	// MinSamples, MaxSamples, and Convergence configure the *adaptive*
	// refill budget: emissions come in chunks of MinSamples (the first
	// chunk raised to the store's n_min deficit, so survivors kept by
	// view maintenance count toward the target), capped at MaxSamples
	// per round, stopping early once no tracked marginal moved by more
	// than Convergence across a chunk. The loop engages when at least
	// one of the three is set; unset members default to DefaultMinSamples,
	// max(Samples, MinSamples), and DefaultConvergence. All three zero
	// keeps the legacy fixed refill — one Samples-sized chunk per round,
	// bit-identical rng consumption to the pre-adaptive implementation
	// (as does MinSamples == MaxSamples == Samples). The stop decision
	// is a pure function of component state and the component's rng
	// stream, so adaptive budgets preserve replay and concurrent
	// bit-reproducibility. See DESIGN.md, "Adaptive sampling".
	MinSamples  int
	MaxSamples  int
	Convergence float64
	// Inference selects the per-component estimation backend: InferSampled
	// (the zero value — the paper's sampler everywhere), InferExact
	// (exhaustive enumeration per Equation 1, maintained incrementally;
	// New fails with ErrExactBudgetExceeded when a component overflows a
	// non-zero ExactBudget), or InferAuto (exact where the instance space
	// fits the budget, sampled elsewhere, with mid-session promotion).
	// See DESIGN.md, "Hybrid inference".
	Inference InferenceMode
	// ExactBudget caps the per-component instance enumeration of the
	// exact backend; the enumeration's search work is bounded
	// proportionally, so an attempt costs O(budget) regardless of the
	// component's instance space. 0 means DefaultExactBudget under
	// InferAuto and *unlimited* under InferExact (the legacy exhaustive
	// mode, which never overflows).
	ExactBudget int
	// Workers bounds the goroutines of the information-gain ranking
	// pass (InformationGains) and of the lazy top-k ranker's
	// intra-component sharding (see topk.go). 0 means
	// runtime.GOMAXPROCS(0); 1 forces a sequential pass.
	Workers int
	// ExhaustiveRank disables the lazy bound-pruned top-k suggestion
	// ranking: Suggest-facing paths fall back to the legacy exhaustive
	// per-component gain pass (EnsureComponentGains /
	// InformationGains). The two paths produce bit-identical
	// suggestions, tie sets, and gain values — the lazy ranker prunes
	// only candidates whose upper bound proves they cannot reach the
	// maximum (see DESIGN.md, "Lazy top-k ranking") — so the switch
	// exists for differential testing and as an escape hatch.
	ExhaustiveRank bool
	// Monolithic disables component decomposition: the whole network is
	// one sample space, as in the paper's Algorithm 1. The decomposed
	// and monolithic paths are equivalent (identical probabilities under
	// Exact, statistically equivalent estimates when sampling); the
	// switch exists for differential testing and debugging.
	Monolithic bool
}

// DefaultConfig returns the sampling-based configuration used by the
// experiments.
func DefaultConfig() Config {
	return Config{Sampler: sampling.DefaultConfig(), Samples: 500}
}

// component is one constraint-connected component of the PMN: its own
// sample space Ω_k, engine fork, sampler, component-scoped feedback
// masks, and cached entropy term. Constraints never couple candidates
// across components, so probabilities and entropies factorize —
// H(C, P) = Σ_k H_k — and an assertion view-maintains and resamples
// only its own component (see DESIGN.md, "Component decomposition").
//
// Everything a component's maintenance touches lives in this struct (or
// in the component-disjoint slices of the PMN it writes through): the
// engine fork owns the walk scratch, the sampler owns the component's
// rng stream, and approved/disapproved mirror F ∩ members. That closure
// is what lets a concurrent serving layer maintain different components
// from different goroutines with one lock per component and no shared
// mutable reads (see DESIGN.md, "Concurrent serving").
type component struct {
	members []int       // global candidate ids, ascending; nil = whole universe
	mask    *bitset.Set // members as a mask; nil = whole universe
	engine  *constraints.Engine
	// inf is the component's estimation backend (sampled or exact, see
	// Inference). Under InferAuto it can be swapped from sampled to exact
	// mid-session (maybePromote); the swap happens under the same
	// serialization as the rest of the component's maintenance.
	inf Inference
	// approved/disapproved are F+ ∩ members and F− ∩ members (global
	// indexing). Component maintenance reads only these — never the
	// PMN-global feedback — because the restricted forms F ∩ within that
	// every component-scoped operation derives (see FeedbackWithin) are
	// identical either way, and component-local masks are writable under
	// a per-component lock while the global sets are not.
	approved    *bitset.Set
	disapproved *bitset.Set
	entropy     float64 // cached H_k = Σ_{c ∈ members} H(p_c)
	// promoteBar memoizes the free-candidate count of the last failed
	// promotion attempt (-1 = none): retry only once assertions shrink
	// the component further, so a too-big component does not re-burn its
	// budgeted enumeration probe on every assertion.
	promoteBar int
	// rankScratch is reused by EnsureComponentGains; owned by the
	// component (used only under the component's lock in concurrent
	// serving), so the eager per-assertion re-rank does not re-allocate.
	rankScratch *igScratch

	// Lazy top-k ranking state (see topk.go). topTies/topGain cache the
	// component's maximal-gain tie set; topFresh is its validity bit,
	// cleared wherever gainsStale is set. The drift fields back the
	// ranker's "previous gain plus delta" upper bound: driftTotal
	// accumulates a provable per-pair mutual-information drift bound as
	// assertions reshape the component's sample distribution, and
	// driftEpoch invalidates wholesale on refill, promotion, or any
	// other non-incremental store change. evalGain/evalDrift/evalEpoch
	// record, per column, the gain and drift state at a candidate's last
	// lazy evaluation. All of it is component-local and maintained under
	// the same serialization as the rest of the component's state.
	topTies    []int
	topGain    float64
	topFresh   bool
	topScratch *topkScratch
	driftTotal float64
	driftEpoch uint64
	evalGain   []float64
	evalDrift  []float64
	evalEpoch  []uint64
}

// store returns the live sample/instance container of the component's
// current backend.
func (c *component) store() *sampling.Store { return c.inf.Store() }

// isAsserted reports whether member c has been asserted either way.
func (c *component) isAsserted(cand int) bool {
	return c.approved.Has(cand) || c.disapproved.Has(cand)
}

// PMN is a probabilistic matching network ⟨N, P⟩: a network of schemas
// with constraints plus a probability for every candidate correspondence
// (§II-B). The probabilities are maintained incrementally as expert
// assertions arrive (pay-as-you-go).
//
// The PMN is decomposed along the constraint-connectivity partition of
// the candidate set (Engine.Components): each component keeps its own
// sample store, an assertion only ever pays for its own component —
// view maintenance, resampling, and probability recomputation are
// O(component), not O(network) — and the network entropy is the sum of
// cached per-component terms. Config.Monolithic restores the single
// global sample space.
type PMN struct {
	engine    *constraints.Engine
	cfg       Config
	rng       *rand.Rand
	feedback  *Feedback
	comps     []*component
	compOf    []int   // candidate -> index into comps
	localIdx  []int32 // candidate -> column index inside its component's store
	probs     []float64
	maxComp   int          // size of the largest component (scratch sizing)
	resamples atomic.Int64 // post-construction refill rounds (observability)
	emissions atomic.Int64 // walk emissions requested, incl. initial fill

	// gains caches IG(c) per candidate. Information gain is
	// component-local (see InformationGain), so an assertion staleness-
	// marks only its own component and the ranking pass re-ranks just
	// that component's members — the others' cached gains stay valid.
	gains      []float64
	gainsStale []bool // per component

	// topoSeed/topoGen derive the deterministic sampler streams of
	// components rebuilt by topology changes (see TopologyChanged):
	// the seed of a rebuilt component is a pure function of
	// (topoSeed, topoGen, members), so live mutation and durable replay
	// draw identical streams without consuming the session rng.
	topoSeed int64
	topoGen  uint64
}

// newComponent wires one component: an engine fork of its own (walk
// scratch is engine-owned, so concurrent component maintenance needs
// per-component forks) and empty component-scoped feedback masks. The
// estimation backend is attached afterwards (PMN.newInference).
func newComponent(engine *constraints.Engine, n int) *component {
	return &component{
		engine:      engine.Fork(),
		approved:    bitset.New(n),
		disapproved: bitset.New(n),
		promoteBar:  -1,
		// Epoch 1, not 0: zero-valued evalEpoch entries mean "never
		// evaluated" and must not match a live epoch (see deltaBound).
		driftEpoch: 1,
	}
}

// New builds a probabilistic matching network and computes the initial
// probabilities (no user input yet). It fails only under forced
// Config.Inference = InferExact with a non-zero ExactBudget some
// component's enumeration overflows (ErrExactBudgetExceeded).
func New(engine *constraints.Engine, cfg Config, rng *rand.Rand) (*PMN, error) {
	if cfg.Samples <= 0 {
		cfg.Samples = DefaultConfig().Samples
	}
	n := engine.Network().NumCandidates()
	p := &PMN{
		engine:   engine,
		cfg:      cfg,
		rng:      rng,
		feedback: NewFeedback(n),
		probs:    make([]float64, n),
	}

	// Per-component sampler configs and stream seeds: the backend choice
	// is made after the components are wired, but the seeds must be
	// drawn in component order regardless of mode, so an exact component
	// does not shift its neighbors' seeds (mode is derived state —
	// replay and differential runs depend on stable streams). Only the
	// seed is kept; newInference builds the stream for sampled backends
	// alone, since exact components never draw from it.
	var scfgs []sampling.Config
	var streams []stream

	parts := engine.Components()
	if cfg.Monolithic || parts.Trivial() {
		// One component covering the whole universe: nil members/mask
		// select the unrestricted code paths everywhere, and the shared
		// session rng keeps the sampling stream identical to the
		// pre-decomposition implementation.
		p.comps = []*component{newComponent(engine, n)}
		p.compOf = make([]int, n)
		p.localIdx = nil
		p.maxComp = n
		scfgs = []sampling.Config{cfg.Sampler}
		streams = []stream{{shared: rng}}
	} else {
		p.compOf = make([]int, n)
		p.localIdx = make([]int32, n)
		p.comps = make([]*component, parts.NumComponents())
		scfgs = make([]sampling.Config, parts.NumComponents())
		streams = make([]stream, parts.NumComponents())
		for k := 0; k < parts.NumComponents(); k++ {
			members := parts.Members(k)
			for j, c := range members {
				p.compOf[c] = k
				p.localIdx[c] = int32(j)
			}
			if len(members) > p.maxComp {
				p.maxComp = len(members)
			}
			// Each component samples from its own deterministic stream, so
			// resampling one component never perturbs the others' draws —
			// and maintenance of component-disjoint assertions commutes
			// bit-for-bit, which is what makes concurrent serving
			// reproducible.
			streams[k] = stream{seed: rng.Int63()}
			scfg := cfg.Sampler
			if scfg.StagnationLimit == 0 {
				// Unset: a small component's instance space saturates in a
				// few dozen emissions; cap the duplicates a round may burn
				// before concluding the round is done. Negative keeps early
				// stopping disabled (see sampling.Config.StagnationLimit).
				scfg.StagnationLimit = 8*len(members) + 128
			}
			scfgs[k] = scfg
			c := newComponent(engine, n)
			c.members = members
			c.mask = bitset.FromIndices(n, members...)
			p.comps[k] = c
		}
	}

	p.gains = make([]float64, n)
	p.gainsStale = make([]bool, len(p.comps))
	for k, c := range p.comps {
		inf, err := p.newInference(k, c, scfgs[k], streams[k])
		if err != nil {
			return nil, err
		}
		c.inf = inf
		// Initial fill; no-op for exact components.
		p.emissions.Add(int64(c.inf.Refill()))
		p.recomputeComp(k)
	}
	return p, nil
}

// MustNew is New that panics on error — for configurations that cannot
// overflow an exact budget (sampled, auto, or unbudgeted exact) and for
// tests.
func MustNew(engine *constraints.Engine, cfg Config, rng *rand.Rand) *PMN {
	p, err := New(engine, cfg, rng)
	if err != nil {
		panic(err)
	}
	return p
}

// Network returns N's schema network.
func (p *PMN) Network() *schema.Network { return p.engine.Network() }

// Engine returns the constraint engine (Γ bound to N).
func (p *PMN) Engine() *constraints.Engine { return p.engine }

// NumComponents returns the number of constraint-connected components
// the PMN is decomposed into (1 when monolithic).
func (p *PMN) NumComponents() int { return len(p.comps) }

// ComponentOf returns the component index of candidate c.
func (p *PMN) ComponentOf(c int) int { return p.compOf[c] }

// ComponentStore returns component k's sample set Ω*_k.
func (p *PMN) ComponentStore(k int) *sampling.Store { return p.comps[k].store() }

// ComponentInference reports which estimation backend currently serves
// component k (InferSampled or InferExact — never InferAuto). Under
// Config.Inference = InferAuto the answer can flip from sampled to
// exact as assertions shrink the component (see maybePromote); it never
// flips back.
func (p *PMN) ComponentInference(k int) InferenceMode { return p.comps[k].inf.Mode() }

// ComponentStores returns the per-component sample sets in component
// order. The slice is freshly allocated; the stores are live.
func (p *PMN) ComponentStores() []*sampling.Store {
	out := make([]*sampling.Store, len(p.comps))
	for k, c := range p.comps {
		out[k] = c.store()
	}
	return out
}

// ComponentMasks returns the per-component member masks in component
// order; a nil entry means the component covers the whole universe.
// The masks must not be mutated.
func (p *PMN) ComponentMasks() []*bitset.Set {
	out := make([]*bitset.Set, len(p.comps))
	for k, c := range p.comps {
		out[k] = c.mask
	}
	return out
}

// Store returns the sample set Ω* when the PMN consists of a single
// component (always true under Config.Monolithic) and nil otherwise —
// a decomposed PMN has one store per component; use ComponentStores.
func (p *PMN) Store() *sampling.Store {
	if len(p.comps) == 1 {
		return p.comps[0].store()
	}
	return nil
}

// Feedback returns the user input collected so far.
func (p *PMN) Feedback() *Feedback { return p.feedback }

// InvalidateGains marks every component's cached information gains
// stale, forcing the next InformationGains call to re-rank the whole
// network. Normal operation never needs this — assertions invalidate
// their own component — it exists so benchmarks and tests can measure
// or exercise a full cold ranking pass.
func (p *PMN) InvalidateGains() {
	for k := range p.gainsStale {
		p.gainsStale[k] = true
		p.comps[k].topFresh = false
	}
}

// ExhaustiveRank reports whether the lazy top-k suggestion ranking is
// disabled (Config.ExhaustiveRank).
func (p *PMN) ExhaustiveRank() bool { return p.cfg.ExhaustiveRank }

// Resamples returns the number of post-construction refill rounds
// (component-scoped; one batch assertion triggers at most one per
// touched component). Tests and diagnostics use it to verify that
// session replay does not resample per history entry. The counter is
// atomic so concurrent component maintenance can bump it without a
// lock.
func (p *PMN) Resamples() int { return int(p.resamples.Load()) }

// Emissions returns the total number of walk emissions requested from
// the samplers, including the initial fill — the sampling-effort unit
// the adaptive budget (Config.MinSamples et al.) economizes. A round
// the sampler ends early on stagnation still counts its requested
// emissions. Atomic for the same reason as Resamples.
func (p *PMN) Emissions() int { return int(p.emissions.Load()) }

// LocalIndex returns candidate c's column index inside its component's
// store and snapshots (the identity when the PMN is a single
// whole-universe component). The mapping is immutable after
// construction and safe to call from any goroutine.
func (p *PMN) LocalIndex(c int) int {
	if p.localIdx == nil {
		return c
	}
	return int(p.localIdx[c])
}

// recomputeComp refreshes component k's slice of P from its store,
// overriding asserted candidates with 1/0 (assertions are always right,
// §II-B), refreshes the cached entropy term H_k, and staleness-marks
// the component's cached information gains.
func (p *PMN) recomputeComp(k int) {
	p.gainsStale[k] = true
	c := p.comps[k]
	c.topFresh = false
	c.store().ProbabilitiesInto(p.probs)
	h := 0.0
	if c.members == nil {
		for cand := range p.probs {
			h += p.entropyTermAt(c, cand)
		}
	} else {
		for _, cand := range c.members {
			h += p.entropyTermAt(c, cand)
		}
	}
	c.entropy = h
}

// entropyTermAt applies the feedback override to p.probs[cand] and
// returns its binary-entropy contribution. The override reads the
// component-scoped masks (cand is always a member of c), keeping the
// recomputation free of PMN-global reads.
func (p *PMN) entropyTermAt(c *component, cand int) float64 {
	if c.approved.Has(cand) {
		p.probs[cand] = 1
		return 0
	}
	if c.disapproved.Has(cand) {
		p.probs[cand] = 0
		return 0
	}
	return BinaryEntropy(p.probs[cand])
}

// Probabilities returns a copy of P.
func (p *PMN) Probabilities() []float64 {
	out := make([]float64, len(p.probs))
	copy(out, p.probs)
	return out
}

// Probability returns p_c.
func (p *PMN) Probability(c int) float64 { return p.probs[c] }

// integrate performs the component-scoped view maintenance for one
// recorded assertion: mirror the assertion into the component's feedback
// masks (the backend's maintenance reads them), view-maintain the
// backend, and report whether it needs a refill. The refill and
// probability recomputation are left to the caller so a batch of
// assertions pays for them once per touched component.
func (p *PMN) integrate(cp *component, c int, approve bool) (needRefill bool) {
	if approve {
		cp.approved.Add(c)
	} else {
		cp.disapproved.Add(c)
	}
	return cp.inf.Apply(c, approve)
}

// RecordAssertion validates one expert assertion and records it in the
// PMN-global feedback (history + F±) without performing any component
// maintenance. It is the first half of Assert, split out so a
// concurrent serving layer can serialize the cheap global record under
// one short lock and run the expensive ApplyAssertions under the owning
// component's lock. Callers must serialize RecordAssertion calls with
// each other.
func (p *PMN) RecordAssertion(c int, approve bool) error {
	if c < 0 || c >= len(p.probs) {
		return fmt.Errorf("core: candidate %d out of range [0,%d)", c, len(p.probs))
	}
	if p.engine.Network().Retired(c) {
		return fmt.Errorf("core: candidate %d: %w", c, ErrCandidateRetired)
	}
	return p.feedback.assert(c, approve)
}

// ApplyAssertions performs component k's maintenance for assertions
// already recorded with RecordAssertion: each assertion is mirrored
// into the component's feedback masks and view-maintained in order, the
// store is refilled at most once if any step left it below n_min, and
// the component's probabilities, entropy term, and gain staleness are
// refreshed. Every candidate must belong to component k.
//
// ApplyAssertions touches only component k's state (plus the
// component-disjoint entries of the probability and gain vectors), so
// calls for different components may run concurrently; calls for the
// same component must be serialized by the caller.
func (p *PMN) ApplyAssertions(k int, as []Assertion) {
	cp := p.comps[k]
	needRefill := false
	for _, a := range as {
		// Drift accounting for the lazy ranker's delta bound: snapshot
		// the store geometry around the view maintenance. An exact
		// disapproval is the one maintenance step that both removes and
		// adds instances; every other path is a pure compaction, where
		// the survivor count is simply the new size.
		st := cp.store()
		before := st.Size()
		kept := -1 // -1: pure compaction, kept = size after
		if !a.Approved && cp.inf.Mode() == InferExact {
			with, _ := st.Partition(a.Cand)
			kept = before - with
		}
		if p.integrate(cp, a.Cand, a.Approved) {
			needRefill = true
		}
		after := cp.store().Size()
		if kept < 0 {
			kept = after
		}
		cp.noteDrift(before, after, kept, cp.freeCount(len(p.probs)))
	}
	// Promotion runs before the refill decision: if the shrunk component
	// now enumerates within budget, the exact backend replaces the store
	// outright and the pending resampling round is never paid — the
	// "zero sampling resamples in the exact tail" property.
	infBefore := cp.inf
	p.maybePromote(k)
	if cp.inf != infBefore {
		// Promotion swapped the backend's store wholesale; previous
		// evaluations no longer bound anything.
		cp.driftEpoch++
	}
	if needRefill && cp.inf.Mode() != InferExact {
		p.emissions.Add(int64(cp.inf.Refill()))
		p.resamples.Add(1)
		cp.driftEpoch++
	}
	p.recomputeComp(k)
}

// Assert integrates one expert assertion: the feedback F is updated, the
// touched component's sample set is view-maintained, resampled if it
// fell below n_min, and the component's probabilities are recomputed
// (§III-B, step (3) of Algorithm 1). Components the assertion does not
// touch keep their samples and probabilities verbatim.
func (p *PMN) Assert(c int, approve bool) error {
	if err := p.RecordAssertion(c, approve); err != nil {
		return err
	}
	p.ApplyAssertions(p.compOf[c], []Assertion{{Cand: c, Approved: approve}})
	return nil
}

// AssertBatch integrates many assertions at once: all feedback is
// recorded and view-maintained first, and each touched component is
// refilled and recomputed exactly once at the end — at most one
// resampling round per touched component regardless of the batch size.
// Session replay (LoadSession) uses this to avoid the
// refill-per-history-entry cost of replaying through Assert. The batch
// is validated up front (duplicate or already-asserted candidates
// reject the whole batch with no state change).
func (p *PMN) AssertBatch(assertions []Assertion) error {
	if err := p.ValidateBatch(assertions); err != nil {
		return err
	}
	for _, a := range assertions {
		if err := p.feedback.assert(a.Cand, a.Approved); err != nil {
			// Unreachable after validation; surface loudly if it happens.
			panic(err)
		}
	}
	groups := p.GroupByComponent(assertions)
	for k := 0; k < len(p.comps); k++ {
		if as := groups[k]; as != nil {
			p.ApplyAssertions(k, as)
		}
	}
	return nil
}

// ValidateBatch checks a batch for out-of-range, in-batch-duplicate,
// and already-asserted candidates without changing any state — the
// all-or-nothing precondition shared by AssertBatch and the concurrent
// serving layer. It reads the global feedback, so callers must
// serialize it with feedback recording.
func (p *PMN) ValidateBatch(assertions []Assertion) error {
	seen := make(map[int]bool, len(assertions))
	for i, a := range assertions {
		if a.Cand < 0 || a.Cand >= len(p.probs) {
			return fmt.Errorf("core: assertion %d: candidate %d out of range [0,%d)", i, a.Cand, len(p.probs))
		}
		if seen[a.Cand] {
			return fmt.Errorf("core: assertion %d: candidate %d asserted twice in batch", i, a.Cand)
		}
		if p.engine.Network().Retired(a.Cand) {
			return fmt.Errorf("core: assertion %d: candidate %d: %w", i, a.Cand, ErrCandidateRetired)
		}
		if p.feedback.IsAsserted(a.Cand) {
			return fmt.Errorf("core: assertion %d: candidate %d: %w", i, a.Cand, ErrAlreadyAsserted)
		}
		seen[a.Cand] = true
	}
	return nil
}

// GroupByComponent splits assertions by the owning component of each
// candidate, preserving relative order within each group. Candidates
// must be in range.
func (p *PMN) GroupByComponent(assertions []Assertion) map[int][]Assertion {
	groups := make(map[int][]Assertion)
	for _, a := range assertions {
		k := p.compOf[a.Cand]
		groups[k] = append(groups[k], a)
	}
	return groups
}

// Uncertain returns the candidates with 0 < p_c < 1, the only ones that
// contribute to network uncertainty and qualify for selection
// (Algorithm 1, line 3).
func (p *PMN) Uncertain() []int {
	var out []int
	for c, pc := range p.probs {
		if pc > 0 && pc < 1 {
			out = append(out, c)
		}
	}
	return out
}

// Entropy returns the network uncertainty H(C, P) of Equation 3 as the
// sum of the cached per-component terms (entropy is additive across
// components because the joint distribution factorizes).
func (p *PMN) Entropy() float64 {
	h := 0.0
	for _, c := range p.comps {
		h += c.entropy
	}
	return h
}
