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
// view maintenance on assertion, refills, the probabilities and entropy
// of the component's members, and the units the information-gain
// ranking and the instantiation heuristic read. Implementations are
// component-local: all their state is owned by the component (or
// shared immutably, or component-disjoint entries of PMN-wide slices),
// so a concurrent serving layer drives one backend per component lock.
type Inference interface {
	// Mode reports the backend actually serving the component — never
	// InferAuto. A piece-served component reports InferSampled even when
	// some or all of its pieces are enumerated.
	Mode() InferenceMode
	// Apply view-maintains one assertion that has already been mirrored
	// into the component's feedback masks.
	Apply(c int, approve bool)
	// Refill re-establishes estimates after Apply: the piece backend
	// enumerates or resamples the pieces the assertions created; the
	// exact backend's Refill is a no-op. It returns the number of walk
	// emissions requested from the sampler (0 when nothing was walked),
	// the effort unit the PMN's emission counter aggregates.
	Refill() int
	// Refresh writes every member's probability into probs at its
	// global position (asserted members read 1 or 0) and returns the
	// component's entropy term H_k, summed over the members in order.
	// Units whose estimates changed since the last Refresh lose their
	// cached tie sets.
	Refresh(probs []float64) float64
	// Units returns the independent factors of the component's
	// distribution. The slice must not be mutated and is valid until
	// the next Apply.
	Units() []*unit
	// UnitOf returns the unit that estimates member c, or nil when c's
	// probability is certain without one.
	UnitOf(c int) *unit
	// Grow widens the backend to an n-candidate universe after a
	// topology change that left this component's membership unchanged:
	// stores and masks widen in place and any universe-sized scratch is
	// dropped. local is the PMN's new global→column index slice (nil for
	// a full-universe store).
	Grow(n int, local []int32)
}

// unit is one independent factor of a component's distribution: a
// store whose columns are members, with the cached entropy of those
// members and the lazy ranker's cached tie set. An exact-served
// component is one unit; a piece-served component has one unit per
// piece of more than one live member. Asserting a member changes
// marginals only inside its unit, so its information gain is the unit's
// H_U − E[H_U | c] (see topk.go).
type unit struct {
	store   *sampling.Store
	members []int   // the store's columns as global ids; nil = whole universe
	entropy float64 // Σ H(p_c) over members
	// ties/gain cache the unit's maximal-gain tie set (ascending ids)
	// and gain (-1 when no member is uncertain); fresh is the validity
	// bit, cleared whenever the unit's estimates change.
	ties  []int
	gain  float64
	fresh bool
}

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

// exactInference materializes the whole component's instance list once
// (bounded by the exact budget) and then *incrementally filters* it on
// each assertion instead of re-enumerating: approvals and disapprovals
// are a single masked compaction pass (Store.ApplyAssertionExact over
// the FilterInstances kernel), entropy and information gain are
// closed-form counts over the surviving list, and the store stays
// complete by construction. The component is its one unit.
type exactInference struct {
	engine *constraints.Engine
	u      unit
	// approved, disapproved and members are shared with the owning
	// component (members nil = whole universe); the disapproval
	// maximality probe and the probability override read them.
	approved, disapproved *bitset.Set
	members               []int
	units                 []*unit
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
	x := &exactInference{engine: engine, approved: approved, disapproved: disapproved, members: members}
	x.u = unit{store: store, members: members}
	x.units = []*unit{&x.u}
	return x, nil
}

func (x *exactInference) Mode() InferenceMode { return InferExact }
func (x *exactInference) Units() []*unit      { return x.units }
func (x *exactInference) UnitOf(c int) *unit  { return &x.u }
func (x *exactInference) Refill() int         { return 0 }

func (x *exactInference) Apply(c int, approve bool) {
	st := x.u.store
	if approve {
		st.ApplyAssertion(c, true)
	} else {
		// The caller mirrored c into the disapproved mask already, so the
		// maximality probe — over the members outside the instance, F−,
		// and the retired set — sees the updated exclusions. Constraints
		// never couple members to non-members, so probing the members is
		// the universe-wide check with ¬members excluded.
		st.ApplyAssertionExact(c, false, func(inst *bitset.Set) bool {
			return x.engine.MaximalWithin(inst, x.disapproved, x.members)
		})
	}
	// Both directions preserve exactness (see FilterInstances): an
	// emptied list means Ω is genuinely empty (contradictory approvals),
	// not lost coverage — re-mark what the plain compaction revoked.
	st.MarkComplete()
}

func (x *exactInference) Refresh(probs []float64) float64 {
	x.u.store.ProbabilitiesInto(probs)
	h := 0.0
	if x.members == nil {
		for c := range probs {
			h += termAt(probs, x.approved, x.disapproved, c)
		}
	} else {
		for _, c := range x.members {
			h += termAt(probs, x.approved, x.disapproved, c)
		}
	}
	x.u.entropy, x.u.fresh = h, false
	return h
}

func (x *exactInference) Grow(n int, local []int32) {
	x.u.store.GrowUniverse(n, local)
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
// enumeration probe of a whole component is worth attempting, as a pure
// function of the budget: a component with many free candidates almost
// certainly overflows (instance counts grow combinatorially in the free
// set), so probing it on every assertion would burn the budgeted work
// cap for nothing — the dominant cost of a naive "attempt whenever free
// < budget" rule on networks with one big component. Purity matters for
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

// stream is a component's base sampler seed: a decomposed PMN draws one
// seed per component (in component order, or from the member content
// on a topology rebuild), and each piece of a piece-served component
// walks a stream derived from it and the piece's members (pieceSeed).
// shared non-nil is the session rng of a trivial partition, which the
// piece backend draws the base seed from.
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

// newInference builds component c's initial backend per Config.Inference:
// InferExact enumerates the whole component (propagating overflow as
// ErrExactBudgetExceeded), InferAuto tries that within budget — gated
// on the free-candidate count (members minus the component's feedback),
// so construction never burns enumeration work on components that are
// obviously too large — and otherwise serves the component piece by
// piece, InferSampled always serves it piece by piece. st is the
// component's base stream; only the piece backend consumes it, so mode
// selection never perturbs it. The piece backend's pieces are left for
// the caller's Refill to fill.
func (p *PMN) newInference(k int, c *component, st stream) (Inference, error) {
	budget := p.exactBudget()
	free := c.freeCount(len(p.probs))
	if p.cfg.Inference == InferExact ||
		(p.cfg.Inference == InferAuto && free < budget && free <= maxAttemptFree(budget)) {
		ex, err := newExactInference(c.engine, c.approved, c.disapproved, c.mask,
			c.members, p.localIdx, p.nmin(), budget)
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
	seed := st.seed
	if st.shared != nil {
		seed = st.shared.Int63()
	}
	return p.newPieceInference(c, seed), nil
}

// maybePromote upgrades an InferAuto component from piece-served to
// whole-component exact once assertions have shrunk its free-candidate
// count below the exact budget. The attempt is deterministic in
// (component feedback, budget) — enumeration consumes no randomness and
// its work is budget-bounded — so a replayed or concurrently-executed
// session reconstructs the same mode: free counts only ever decrease,
// every component assertion below the bar retries, and the final
// attempt on both paths sees the same final feedback. A failed attempt
// memoizes the free count and retries only after it shrinks further (no
// repeated burn at the same state); a promoted component never demotes
// — filtering only shrinks its list. Callers must hold the component's
// maintenance lock (concurrent serving) or be the single session
// goroutine.
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
	ex, err := newExactInference(cp.engine, cp.approved, cp.disapproved, cp.mask,
		cp.members, p.localIdx, p.nmin(), budget)
	if err != nil {
		// Over budget at this feedback state: stay piece-served, remember
		// the state so the next attempt waits for more assertions.
		cp.promoteBar = free
		return
	}
	cp.inf = ex
}
