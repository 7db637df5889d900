package core

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/sampling"
)

// InferenceMode identifies a per-component estimation backend of the
// probabilistic matching network.
type InferenceMode int

const (
	// InferSampled estimates probabilities from the non-uniform sampler's
	// store (§III-B) — the paper's algorithm, and the zero value.
	InferSampled InferenceMode = iota
	// InferExact materializes the component's instance list once
	// (Equation 1) and maintains it incrementally under assertions —
	// noise-free probabilities, entropy, and information gain.
	InferExact
	// InferAuto picks per component: exact where the instance space fits
	// Config.ExactBudget, sampled elsewhere, with sampled components
	// *promoted* to exact once assertions shrink their free-candidate
	// count below the budget. Only a Config value — a component's live
	// backend always reports InferSampled or InferExact.
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

// DefaultExactBudget is the per-component instance budget InferAuto
// uses when Config.ExactBudget is zero: components whose instance space
// enumerates within it (and whose free-candidate count is below it)
// serve exact probabilities; the rest sample.
const DefaultExactBudget = 1024

// ErrExactBudgetExceeded reports a component whose matching-instance
// enumeration exceeded the exact-inference budget under forced
// InferExact (under InferAuto the component silently stays sampled
// instead). It wraps the sampling layer's overflow so callers get one
// documented errors.Is target through the public API.
var ErrExactBudgetExceeded = errors.New("core: exact inference budget exceeded")

// Inference is the estimation seam of one component: everything the
// probabilistic matching network needs from a probability backend —
// estimates into the shared store representation (probabilities,
// entropy, and the conditional counts of the information-gain ranking
// all read the store's columnar counts), view maintenance on assertion,
// and refills. Implementations are component-local: all their state is
// owned by the component (or shared immutably), so a concurrent serving
// layer drives one backend per component lock.
type Inference interface {
	// Mode reports the backend actually serving the component — never
	// InferAuto.
	Mode() InferenceMode
	// Store returns the live instance container Ω*_k. For the exact
	// backend it is complete at all times (Ω*_k = Ω_k); probabilities,
	// closed-form entropy/IG counts, snapshots, and instantiation all
	// read it.
	Store() *sampling.Store
	// Apply view-maintains one assertion that has already been mirrored
	// into the component's feedback masks, and reports whether Refill
	// must run before estimates are read again. The exact backend never
	// needs a refill: its assertion update is a single masked compaction
	// pass that preserves completeness.
	Apply(c int, approve bool) (needRefill bool)
	// Refill re-establishes estimates after Apply requested it: the
	// sampled backend resamples the store toward n_min (concluding
	// completeness after two short rounds, §III-B); the exact backend's
	// Refill is a no-op. It returns the number of walk emissions
	// requested from the sampler (0 for exact backends), the effort unit
	// the PMN's emission counter aggregates.
	Refill() int
	// Grow widens the backend to an n-candidate universe after a
	// topology change that left this component's membership unchanged:
	// the store's instance bitsets widen in place and any universe-sized
	// scratch is dropped. local is the PMN's new global→column index
	// slice (nil for a full-universe store).
	Grow(n int, local []int32)
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

// sampledInference is the paper's sampling path (§III-B), moved behind
// the Inference seam: a store refilled by the component's confined
// sampler walk, with view maintenance by plain compaction.
type sampledInference struct {
	sampler *sampling.Sampler
	store   *sampling.Store
	plan    budgetPlan
	// approved/disapproved/mask are the component's feedback masks and
	// member mask, shared with (and written by) the owning component;
	// mask nil means the whole universe.
	approved, disapproved, mask *bitset.Set
	// prev/cur are marginal-vector scratch (column space, length
	// TrackedCount) for the convergence test; nil until the first round
	// of more than one chunk. Owned by the component like the rest of
	// the backend state.
	prev, cur []float64
}

func (s *sampledInference) Mode() InferenceMode    { return InferSampled }
func (s *sampledInference) Store() *sampling.Store { return s.store }

func (s *sampledInference) Apply(c int, approve bool) bool {
	s.store.ApplyAssertion(c, approve)
	return s.store.NeedsResample()
}

func (s *sampledInference) Refill() int {
	total := 0
	for round := 0; round < 2 && s.store.NeedsResample(); round++ {
		total += s.refillRound()
	}
	if s.store.NeedsResample() {
		// Two consecutive rounds could not reach n_min: the actual
		// number of matching instances is below n_min and the store
		// holds all of them. The chunk loop preserves the premise —
		// every round's first chunk covers at least the n_min deficit,
		// so a round that ends below n_min genuinely failed to find the
		// missing instances rather than never asking for them.
		s.store.MarkComplete()
	}
	return total
}

// refillRound emits one resampling round's walk samples in chunks and
// returns the emissions requested. The round stops at the cap, or once
// no tracked marginal moved by more than plan.conv across a chunk; a
// chunk that discovered no new distinct instance has delta 0 and stops
// likewise. The marginals after one chunk are the baseline of the next,
// so each chunk costs one marginal pass. The stop decision is a pure
// function of the store state and the component's rng stream, so serial
// execution, batch replay, and concurrent component-disjoint
// interleavings reconstruct identical stores.
func (s *sampledInference) refillRound() int {
	st := s.store
	emitted := 0
	for emitted < s.plan.max {
		chunk := s.plan.min
		if emitted == 0 {
			// Survivor reuse: instances kept by view maintenance count
			// toward the target, so the first chunk covers only the n_min
			// deficit (never less than one convergence-testable chunk).
			if d := st.NMin() - st.Size(); d > chunk {
				chunk = d
			}
		}
		if rem := s.plan.max - emitted; chunk > rem {
			chunk = rem
		}
		last := emitted+chunk >= s.plan.max
		if emitted == 0 && !last {
			if s.prev == nil {
				s.prev = make([]float64, st.TrackedCount())
				s.cur = make([]float64, st.TrackedCount())
			}
			st.MarginalsInto(s.prev)
		}
		s.sampler.SampleWithin(st, s.approved, s.disapproved, s.mask, chunk)
		emitted += chunk
		if last {
			break
		}
		st.MarginalsInto(s.cur)
		if maxAbsDelta(s.prev, s.cur) <= s.plan.conv {
			break
		}
		s.prev, s.cur = s.cur, s.prev
	}
	return emitted
}

func (s *sampledInference) Grow(n int, local []int32) {
	s.store.GrowUniverse(n, local)
	// The walk's instance/blocked scratch is universe-sized; drop it so
	// the next SampleWithin reallocates at the new width.
	s.sampler.ResetScratch()
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

// exactInference materializes the component's instance list once
// (bounded by the exact budget) and then *incrementally filters* it on
// each assertion instead of re-enumerating: approvals and disapprovals
// are a single masked compaction pass (Store.ApplyAssertionExact over
// the FilterInstances kernel), entropy and information gain are
// closed-form counts over the surviving list, and NeedsResample is
// always false — the store stays complete by construction.
type exactInference struct {
	engine *constraints.Engine
	store  *sampling.Store
	// disapproved and members are shared with the owning component
	// (members nil = whole universe); the disapproval maximality probe
	// reads them.
	disapproved *bitset.Set
	members     []int
}

// newExactInference enumerates the component's matching instances under
// the current feedback into a fresh complete store. budget caps both
// the instance count and the enumeration work (0 = unlimited); overflow
// returns sampling.ErrTooManyInstances.
func newExactInference(engine *constraints.Engine, approved, disapproved, mask *bitset.Set,
	members []int, localIdx []int32, nmin, budget int) (*exactInference, error) {
	instances, err := sampling.EnumerateWithin(engine, approved, disapproved, mask, budget)
	if err != nil {
		return nil, err
	}
	n := engine.Network().NumCandidates()
	var store *sampling.Store
	if members == nil {
		store = sampling.NewStore(n, nmin)
	} else {
		store = sampling.NewComponentStore(n, nmin, members, localIdx)
	}
	for _, inst := range instances {
		store.Add(inst)
	}
	store.MarkComplete()
	return &exactInference{engine: engine, store: store, disapproved: disapproved, members: members}, nil
}

func (x *exactInference) Mode() InferenceMode    { return InferExact }
func (x *exactInference) Store() *sampling.Store { return x.store }

func (x *exactInference) Apply(c int, approve bool) bool {
	if approve {
		x.store.ApplyAssertion(c, true)
	} else {
		// The caller mirrored c into the disapproved mask already, so the
		// maximality probe — over the members outside the instance, F−,
		// and the retired set — sees the updated exclusions. Constraints
		// never couple members to non-members, so probing the members is
		// the universe-wide check with ¬members excluded.
		x.store.ApplyAssertionExact(c, false, func(inst *bitset.Set) bool {
			return x.engine.MaximalWithin(inst, x.disapproved, x.members)
		})
	}
	// Both directions preserve exactness (see FilterInstances): an
	// emptied list means Ω is genuinely empty (contradictory approvals),
	// not lost coverage — re-mark what the plain compaction revoked.
	x.store.MarkComplete()
	return false
}

func (x *exactInference) Refill() int { return 0 }

func (x *exactInference) Grow(n int, local []int32) {
	x.store.GrowUniverse(n, local)
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
// enumeration probe is worth attempting, as a pure function of the
// budget: a component with many free candidates almost certainly
// overflows (instance counts grow combinatorially in the free set), so
// probing it on every assertion would burn the budgeted work cap for
// nothing — the dominant cost of a naive "attempt whenever free <
// budget" rule on networks with one big component. Purity matters for
// more than cost: the attempt decision must depend only on the current
// feedback state so that serial execution, a restore built under the
// saved feedback (NewWithHistory), batch replay, and concurrent
// interleavings all reconstruct the same mode (enumeration success is
// monotone along an assertion path — instances and search work only
// shrink — so "attempted and succeeded at any visited state" and
// "succeeds at the final state" coincide as long as the attempt set is
// downward closed in free, which a fixed ceiling guarantees).
func maxAttemptFree(budget int) int {
	return 3*bits.Len(uint(budget)) + 8
}

// freeCount returns the component's unasserted member count — the
// promotion trigger input. The feedback masks only ever hold members,
// so two popcounts suffice.
func (c *component) freeCount(universe int) int {
	n := universe
	if c.members != nil {
		n = len(c.members)
	}
	return n - c.approved.Count() - c.disapproved.Count()
}

// stream is a component's sampler stream, built lazily: a decomposed
// PMN draws one seed per component (in component order, or from the
// member content on a topology rebuild) but seeds a rand.Rand — a
// few KB and microseconds each — only for components that sample.
// shared non-nil is an already-built stream used as is (the trivial
// partition's session rng).
type stream struct {
	shared *rand.Rand
	seed   int64
}

func (s stream) rand() *rand.Rand {
	if s.shared != nil {
		return s.shared
	}
	return rand.New(rand.NewSource(s.seed))
}

// newInference builds component c's initial backend per Config.Inference:
// InferExact enumerates (propagating overflow as ErrExactBudgetExceeded),
// InferAuto tries exact within budget — gated on the free-candidate
// count (members minus the component's feedback), so construction never
// burns enumeration work on components that are obviously too large —
// and falls back to sampling, InferSampled always samples. st is the component's sampler stream; it is built and
// consumed only by the sampled backend, so mode selection never
// perturbs it.
func (p *PMN) newInference(k int, c *component, st stream) (Inference, error) {
	scfg := p.cfg.Sampler
	nmin := scfg.NMin
	if nmin <= 0 {
		nmin = sampling.DefaultConfig().NMin
	}
	budget := p.exactBudget()
	free := c.freeCount(len(p.probs))
	if p.cfg.Inference == InferExact ||
		(p.cfg.Inference == InferAuto && free < budget && free <= maxAttemptFree(budget)) {
		ex, err := newExactInference(c.engine, c.approved, c.disapproved, c.mask,
			c.members, p.localIdx, nmin, budget)
		if err == nil {
			return ex, nil
		}
		if p.cfg.Inference == InferExact {
			size := len(p.probs)
			if c.members != nil {
				size = len(c.members)
			}
			return nil, fmt.Errorf("core: component %d (%d candidates): %w: %v",
				k, size, ErrExactBudgetExceeded, err)
		}
	}
	sampler := sampling.NewSampler(c.engine, scfg, st.rand())
	var store *sampling.Store
	if c.members == nil {
		store = sampling.NewStore(len(p.probs), sampler.Config().NMin)
	} else {
		store = sampling.NewComponentStore(len(p.probs), sampler.Config().NMin, c.members, p.localIdx)
	}
	return &sampledInference{
		sampler: sampler, store: store, plan: resolveBudget(p.cfg),
		approved: c.approved, disapproved: c.disapproved, mask: c.mask,
	}, nil
}

// maybePromote upgrades an InferAuto component from sampled to exact
// once assertions have shrunk its free-candidate count below the exact
// budget. The attempt is deterministic in (component feedback, budget) —
// enumeration consumes no randomness and its work is budget-bounded —
// so a replayed or concurrently-executed session reconstructs the same
// mode: free counts only ever decrease, every component assertion below
// the bar retries, and the final attempt on both paths sees the same
// final feedback. A failed attempt memoizes the free count and retries
// only after it shrinks further (no repeated burn at the same state); a
// promoted component never demotes — filtering only shrinks its list.
// Callers must hold the component's maintenance lock (concurrent
// serving) or be the single session goroutine.
func (p *PMN) maybePromote(k int) {
	if p.cfg.Inference != InferAuto {
		return
	}
	cp := p.comps[k]
	if cp.inf.Mode() == InferExact {
		return
	}
	free := cp.freeCount(len(p.probs))
	budget := p.exactBudget()
	if free >= budget || free > maxAttemptFree(budget) ||
		(cp.promoteBar >= 0 && free >= cp.promoteBar) {
		return
	}
	nmin := cp.inf.Store().NMin()
	ex, err := newExactInference(cp.engine, cp.approved, cp.disapproved, cp.mask,
		cp.members, p.localIdx, nmin, budget)
	if err != nil {
		// Over budget at this feedback state: stay sampled, remember the
		// state so the next attempt waits for more assertions.
		cp.promoteBar = free
		return
	}
	cp.inf = ex
}
