package core

import (
	"fmt"
	"math/rand"
	"sort"
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
	// Samples caps the walk emissions of one (re)sampling round. In a
	// decomposed PMN each component gets rounds of its own.
	Samples int
	// MinSamples and Convergence shape the refill loop: emissions come in
	// chunks of MinSamples (the first chunk raised to the store's n_min
	// deficit, so survivors kept by view maintenance count toward the
	// target), and a round stops early once no tracked marginal moved by
	// more than Convergence across a chunk. Zero selects
	// DefaultMinSamples and DefaultConvergence; MinSamples is clamped to
	// Samples, and MinSamples == Samples makes every round one chunk.
	// The stop decision is a pure function of component state and the
	// component's rng stream, so it preserves replay and concurrent
	// bit-reproducibility. See DESIGN.md, "Adaptive sampling".
	MinSamples  int
	Convergence float64
	// Inference selects how each component's live pieces are estimated:
	// InferSampled (the zero value — the paper's sampler everywhere),
	// InferExact (exhaustive enumeration per Equation 1, maintained
	// incrementally; New fails with ErrExactBudgetExceeded when a
	// component overflows a non-zero ExactBudget), or InferAuto (every
	// piece that fits the budget is enumerated, the rest sampled). See
	// DESIGN.md, "Hybrid inference".
	Inference InferenceMode
	// ExactBudget caps the instance count of one enumeration (a piece,
	// or the whole-component probe of ComponentInference and forced
	// InferExact); the enumeration's search work is bounded
	// proportionally, so an attempt costs O(budget) regardless of the
	// instance space. 0 means DefaultExactBudget under InferAuto and
	// *unlimited* under InferExact (which then never overflows).
	ExactBudget int
	// Workers bounds the goroutines of the lazy top-k ranker's streaming
	// path — pieces with more than topkMatrixCap uncertain members;
	// smaller ones rank serially (see topk.go) — and of the exhaustive
	// InformationGains pass. 0 means runtime.GOMAXPROCS(0); 1 forces a
	// sequential pass.
	Workers int
}

// DefaultConfig returns the sampling-based configuration used by the
// experiments.
func DefaultConfig() Config {
	return Config{Sampler: sampling.DefaultConfig(), Samples: 500}
}

// component is one constraint-connected component of the PMN: its
// explicit member list, its own sample space Ω_k, engine fork,
// component-scoped feedback masks, the live pieces that serve its
// estimates (pieces.go), and its cached entropy term. Constraints never
// couple candidates across components, so probabilities and entropies
// factorize — H(C, P) = Σ_k H_k — and an assertion view-maintains and
// resamples only its own component (see DESIGN.md, "Component
// decomposition"). A trivial partition is one component over every
// candidate.
//
// Everything a component's maintenance touches lives in this struct (or
// in the component-disjoint slices of the PMN it writes through): the
// engine fork and the sampler own the walk scratch, the component's rng
// carries its walk streams, and approved/disapproved mirror F ∩ members.
// That closure is what lets a concurrent serving layer maintain
// different components from different goroutines with one lock per
// component and no shared mutable reads (see DESIGN.md, "Concurrent
// serving").
type component struct {
	p       *PMN
	members []int       // global candidate ids, ascending
	mask    *bitset.Set // members as a mask
	engine  *constraints.Engine
	// approved/disapproved are F+ ∩ members and F− ∩ members (global
	// indexing). Component maintenance reads only these — never the
	// PMN-global feedback — because the restricted forms F ∩ within that
	// every component-scoped operation derives (see FeedbackWithin) are
	// identical either way, and component-local masks are writable under
	// a per-component lock while the global sets are not.
	approved    *bitset.Set
	disapproved *bitset.Set
	entropy     float64 // cached H_k = Σ_{c ∈ members} H(p_c)

	// Lazy top-k ranking state (see topk.go). topTies/topGain cache the
	// component's maximal-gain tie set — the best over its pieces' cached
	// tie sets; topFresh is its validity bit, cleared whenever the
	// component's probabilities are recomputed. topScratch holds the
	// ranking buffers. All of it is component-local and maintained under
	// the same serialization as the rest of the component's state.
	topTies    []int
	topGain    float64
	topFresh   bool
	topScratch *topkScratch

	// Live pieces (pieces.go). pieces are the slots PMN.pieceOf
	// indexes; pending holds the pieces created since the last refill.
	pieces  []*piece
	pending []*piece
	// contradicted records approvals that conflict with each other: the
	// component has no matching instance left.
	contradicted bool
	seed         int64 // base seed of the pieces' walk streams
	plan         budgetPlan
	budget       int  // enumeration budget; 0 = unlimited
	maxEnum      int  // largest piece (in members) enumerated; 0 = walk every piece
	fits         bool // wholeFits held once; it never flips back

	// Walk state, built on the first walk: one sampler over the engine
	// fork whose rng is re-seeded per piece.
	sampler *sampling.Sampler
	rng     *rand.Rand
	within  *bitset.Set // scratch: piece ∪ F+
	probe   *bitset.Set // scratch: stripped instance ∪ F+
	// prev/cur are marginal-vector scratch for the convergence test.
	prev, cur []float64
}

// mirror records an assertion on member cand into the component's
// feedback masks.
func (c *component) mirror(cand int, approve bool) {
	if approve {
		c.approved.Add(cand)
	} else {
		c.disapproved.Add(cand)
	}
}

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
// stores, an assertion only ever pays for its own component — view
// maintenance, resampling, and probability recomputation are
// O(component), not O(network) — and the network entropy is the sum of
// cached per-component terms. Every component is served by the live
// pieces of its feedback (see pieces.go), and an assertion
// view-maintains and refills only its own piece. A network whose
// constraints connect every candidate (a trivial partition) is one
// component over every candidate: the paper's single global sample
// space.
type PMN struct {
	engine   *constraints.Engine
	cfg      Config
	rng      *rand.Rand
	feedback *Feedback
	comps    []*component
	compOf   []int   // candidate -> index into comps
	localIdx []int32 // candidate -> column index inside its component's snapshots
	probs    []float64
	maxComp  int // size of the largest component (scratch sizing)
	// pieceOf/pieceCol place every member of every component:
	// the slot of its piece in the component (or notLive /
	// singleLive) and its column in that piece's store. Components write
	// only their own members' entries.
	pieceOf, pieceCol []int32
	resamples         atomic.Int64 // post-construction refill rounds (observability)
	emissions         atomic.Int64 // walk emissions requested, incl. initial fill

	// topoSeed/topoGen derive the deterministic sampler streams of
	// components rebuilt by topology changes (see TopologyChanged):
	// the seed of a rebuilt component is a pure function of
	// (topoSeed, topoGen, members), so live mutation and durable replay
	// draw identical streams without consuming the session rng.
	topoSeed int64
	topoGen  uint64
}

// New builds a probabilistic matching network and computes the initial
// probabilities (no user input yet). It fails only under forced
// Config.Inference = InferExact with a non-zero ExactBudget some
// component's enumeration overflows (ErrExactBudgetExceeded).
func New(engine *constraints.Engine, cfg Config, rng *rand.Rand) (*PMN, error) {
	return NewWithHistory(engine, cfg, rng, nil)
}

// NewWithHistory builds a probabilistic matching network whose feedback
// starts as history, in order — the restore path of a saved session.
// The history is validated like an AssertBatch (ValidateBatch; on error
// nothing is built) and recorded into F and every component's feedback
// masks before any component is filled, so the initial fill enumerates
// or samples the conditioned space directly (Algorithm 3 seeds from F+
// and excludes F−) instead of filling the unconditioned network and
// filtering it. The per-component streams are drawn exactly as New
// draws them, so a component the history never touches gets New's
// initial fill bit for bit; an enumerated piece's instance list is the
// filtered enumeration; Resamples stays 0. Under forced InferExact the
// budget applies to the conditioned enumeration.
func NewWithHistory(engine *constraints.Engine, cfg Config, rng *rand.Rand, history []Assertion) (*PMN, error) {
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
		pieceOf:  make([]int32, n),
		pieceCol: make([]int32, n),
	}
	if err := p.recordBatch(history); err != nil {
		return nil, err
	}

	// Per-component base seeds, drawn in component order regardless of
	// mode, so a component that never walks does not shift its
	// neighbors' seeds (replay and differential runs depend on stable
	// streams). Each piece derives its stream from its component's seed.
	// Each component samples from its own deterministic stream, so
	// resampling one component never perturbs the others' draws — and
	// maintenance of component-disjoint assertions commutes bit-for-bit,
	// which is what makes concurrent serving reproducible. The one
	// component of a trivial partition draws from the session rng only
	// if it may walk (see newComponent).
	parts := engine.Components()
	p.layout(parts)
	p.comps = make([]*component, parts.NumComponents())
	for k := range p.comps {
		st := stream{shared: rng}
		if len(p.comps) > 1 {
			st = stream{seed: rng.Int63()}
		}
		c, err := p.newComponent(k, parts.Members(k), st)
		if err != nil {
			return nil, err
		}
		p.comps[k] = c
		// Initial fill of every piece under the component's feedback.
		p.emissions.Add(int64(c.refill()))
		p.recomputeComp(k)
	}
	return p, nil
}

// layout indexes the partition: each candidate's component and column,
// and the largest component's size.
func (p *PMN) layout(parts *constraints.Partition) {
	n := parts.NumCandidates()
	p.compOf, p.localIdx, p.maxComp = make([]int, n), make([]int32, n), 0
	for k := 0; k < parts.NumComponents(); k++ {
		members := parts.Members(k)
		for j, c := range members {
			p.compOf[c] = k
			p.localIdx[c] = int32(j)
		}
		p.maxComp = max(p.maxComp, len(members))
	}
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
// the PMN is decomposed into (1 for a trivial partition).
func (p *PMN) NumComponents() int { return len(p.comps) }

// ComponentOf returns the component index of candidate c.
func (p *PMN) ComponentOf(c int) int { return p.compOf[c] }

// ComponentInference reports how component k is served, as a pure
// query of its current feedback: under forced modes the mode itself;
// under InferAuto, InferExact when the whole component enumerates
// within the budget (wholeFits), and InferSampled otherwise. The pieces
// of a component reported exact are all enumerated. Under InferAuto the
// answer can flip from sampled to exact as assertions shrink the
// component; it never flips back, so once exact it is answered without
// probing. The probe enumerates and records its result on the
// component, so callers serialize it with the component's maintenance.
func (p *PMN) ComponentInference(k int) InferenceMode {
	if p.cfg.Inference != InferAuto {
		return p.cfg.Inference
	}
	if p.comps[k].wholeFits() {
		return InferExact
	}
	return InferSampled
}

// UnitStores returns the stores serving component k, one per piece of
// two or more live members, ordered by smallest member. The stores are
// live.
func (p *PMN) UnitStores(k int) []*sampling.Store {
	var out []*sampling.Store
	for _, pc := range sortedPieces(p.comps[k].pieces) {
		out = append(out, pc.store)
	}
	return out
}

// sortedPieces returns the pieces ordered by smallest member.
func sortedPieces(pieces []*piece) []*piece {
	out := append([]*piece(nil), pieces...)
	sort.Slice(out, func(a, b int) bool { return out[a].members[0] < out[b].members[0] })
	return out
}

// PieceCounts reports component k's live pieces and how many of them
// are served exactly (a single live member, an enumerated piece, or a
// piece split from one).
func (p *PMN) PieceCounts(k int) (pieces, exact int) {
	return p.comps[k].pieceCounts()
}

// InstantiationUnits returns the independent (store, mask) units the
// instantiation heuristic searches, component by component: each
// piece's store with mask piece ∪ F+, and then F+ plus the component's
// single live members as one store-less unit. The objective is a sum
// over these units, so their per-unit optima union to a global optimum
// (instantiate.HeuristicDecomposed). The masks are fresh; the stores
// are live.
func (p *PMN) InstantiationUnits() (stores []*sampling.Store, masks []*bitset.Set) {
	for _, c := range p.comps {
		stores, masks = c.instantiationUnits(stores, masks)
	}
	return stores, masks
}

// Feedback returns the user input collected so far.
func (p *PMN) Feedback() *Feedback { return p.feedback }

// Resamples returns the number of post-construction refills that
// walked (component-scoped; one batch assertion counts at most one per
// touched component, however many of its pieces walked). A session
// restored through NewWithHistory reads 0 — its history conditions the
// initial fill rather than triggering refills — and tests use that to
// verify restores never resample. The
// counter is atomic so concurrent component maintenance can bump it
// without a lock.
func (p *PMN) Resamples() int { return int(p.resamples.Load()) }

// Emissions returns the total number of walk emissions requested from
// the samplers, including the initial fill — the sampling-effort unit
// the refill loop's early stop (Config.MinSamples, Convergence)
// economizes. Atomic for the same reason as Resamples.
func (p *PMN) Emissions() int { return int(p.emissions.Load()) }

// LocalIndex returns candidate c's column index inside its component's
// snapshots: its position in the component's ascending member list. The
// mapping changes only with the topology (TopologyChanged) and is safe
// to call from any goroutine between topology changes.
func (p *PMN) LocalIndex(c int) int { return int(p.localIdx[c]) }

// recomputeComp refreshes component k's slice of P from its pieces
// (asserted candidates read 1/0 — assertions are always right, §II-B),
// refreshes the cached entropy term H_k, and invalidates the
// component's cached top-k tie set.
func (p *PMN) recomputeComp(k int) {
	c := p.comps[k]
	c.topFresh = false
	c.entropy = c.refresh()
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
// masks (the piece maintenance reads them) and view-maintain the
// asserted member's piece. The refill and probability recomputation are
// left to the caller so a batch of assertions pays for them once per
// touched component.
func (p *PMN) integrate(cp *component, c int, approve bool) {
	cp.mirror(c, approve)
	cp.apply(c, approve)
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
// pieces the batch created are refilled once, and the component's
// probabilities, entropy term, and cached tie set are refreshed. Every
// candidate must belong to component k.
//
// ApplyAssertions touches only component k's state (plus the
// component-disjoint entries of the probability vector), so
// calls for different components may run concurrently; calls for the
// same component must be serialized by the caller.
func (p *PMN) ApplyAssertions(k int, as []Assertion) {
	cp := p.comps[k]
	for _, a := range as {
		p.integrate(cp, a.Cand, a.Approved)
	}
	if e := cp.refill(); e > 0 {
		p.emissions.Add(int64(e))
		p.resamples.Add(1)
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
// Session replay uses this for the assertions that follow a topology
// mutation in a saved operation stream (the leading assertions are
// folded into construction, see NewWithHistory), avoiding the
// refill-per-history-entry cost of replaying through Assert. The batch
// is validated up front (duplicate or already-asserted candidates
// reject the whole batch with no state change).
func (p *PMN) AssertBatch(assertions []Assertion) error {
	if err := p.recordBatch(assertions); err != nil {
		return err
	}
	groups := p.GroupByComponent(assertions)
	for k := 0; k < len(p.comps); k++ {
		if as := groups[k]; as != nil {
			p.ApplyAssertions(k, as)
		}
	}
	return nil
}

// recordBatch validates a batch (ValidateBatch) and records it in the
// PMN-global feedback, without any component maintenance.
func (p *PMN) recordBatch(assertions []Assertion) error {
	if err := p.ValidateBatch(assertions); err != nil {
		return err
	}
	for _, a := range assertions {
		if err := p.feedback.assert(a.Cand, a.Approved); err != nil {
			// Unreachable after validation; surface loudly if it happens.
			panic(err)
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
