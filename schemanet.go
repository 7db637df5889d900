// Package schemanet is a library for pay-as-you-go reconciliation in
// schema matching networks, reproducing Nguyen et al., ICDE 2014.
//
// A matching network is a set of schemas, an interaction graph saying
// which pairs must be matched, and candidate attribute correspondences
// produced by automatic matchers. Network-level integrity constraints
// (one-to-one, cycle) expose the matchers' mistakes as violations; an
// expert resolves them by approving/disapproving correspondences. This
// package maintains a probabilistic matching network under that
// feedback, orders the expert's work by information gain, and can
// instantiate a trusted, constraint-consistent matching at any time.
//
// Typical use:
//
//	net := /* build or match a network */
//	s, err := schemanet.NewSession(net, nil)
//	for i := 0; i < budget; i++ {
//		c, ok := s.Suggest()
//		if !ok {
//			break
//		}
//		s.Assert(c, expertSaysCorrect(c))
//	}
//	trusted := s.Instantiate() // consistent matching, any time
package schemanet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"schemanet/internal/constraints"
	"schemanet/internal/core"
	"schemanet/internal/datagen"
	"schemanet/internal/instantiate"
	"schemanet/internal/matcher"
	"schemanet/internal/sampling"
	"schemanet/internal/schema"
	"schemanet/internal/wal"
)

// Re-exported model types; see the schema package for details.
type (
	// Network is an immutable schema matching network.
	Network = schema.Network
	// Builder assembles a Network.
	Builder = schema.Builder
	// Dataset bundles a network with its ground-truth matching.
	Dataset = schema.Dataset
	// Matching is a set of attribute correspondences.
	Matching = schema.Matching
	// Correspondence is a scored attribute pair.
	Correspondence = schema.Correspondence
	// AttrID identifies an attribute.
	AttrID = schema.AttrID
	// SchemaID identifies a schema.
	SchemaID = schema.SchemaID
	// Matcher produces candidate correspondences for a network.
	Matcher = matcher.Matcher
	// Assertion is one expert statement about a candidate
	// correspondence, used by the batch APIs (ConcurrentSession.AssertBatch).
	Assertion = core.Assertion
	// InferenceMode identifies how components are estimated; see
	// Options.Inference and Session.InferenceOf.
	InferenceMode = core.InferenceMode
)

// The inference modes. InferenceAuto only ever appears in
// configuration — InferenceOf always reports InferenceSampled or
// InferenceExact.
const (
	InferenceSampled = core.InferSampled
	InferenceExact   = core.InferExact
	InferenceAuto    = core.InferAuto
)

// NewBuilder starts assembling a network.
func NewBuilder() *Builder { return schema.NewBuilder() }

// NewMatching returns an empty matching.
func NewMatching() *Matching { return schema.NewMatching() }

// EncodeDataset serializes a dataset to JSON.
func EncodeDataset(w io.Writer, d *Dataset) error { return schema.EncodeDataset(w, d) }

// DecodeDataset parses a dataset from JSON.
func DecodeDataset(r io.Reader) (*Dataset, error) { return schema.DecodeDataset(r) }

// COMALike returns the built-in parallel composite matcher.
func COMALike() Matcher { return matcher.NewCOMALike() }

// AMCLike returns the built-in process-tree matcher.
func AMCLike() Matcher { return matcher.NewAMCLike() }

// Match runs the matcher over every interaction edge of net and returns
// the network carrying the produced candidate correspondences.
func Match(net *Network, m Matcher) (*Network, error) {
	return net.WithCandidates(m.Match(net))
}

// GenerateDataset builds a synthetic dataset from a named profile
// ("bp", "po", "uaf", "webform" — the paper's Table II shapes — or
// "multicomp", a small-component-heavy shape whose candidate set
// decomposes into many small constraint-connected components),
// optionally scaled (scale 1 = the profile's full shape).
func GenerateDataset(profile string, scale float64, seed int64) (*Dataset, error) {
	var p datagen.Profile
	switch profile {
	case "bp", "BP":
		p = datagen.BP()
	case "po", "PO":
		p = datagen.PO()
	case "uaf", "UAF":
		p = datagen.UAF()
	case "webform", "WebForm":
		p = datagen.WebForm()
	case "multicomp", "MultiComp":
		p = datagen.MultiComp()
	default:
		return nil, fmt.Errorf("schemanet: unknown profile %q", profile)
	}
	if scale > 0 && scale < 1 {
		p = datagen.Scale(p, scale)
	}
	return datagen.Generate(p, rand.New(rand.NewSource(seed)))
}

// Options configures a reconciliation session. The zero value (or nil)
// selects the paper's defaults: one-to-one + cycle constraints,
// sampling-based probabilities, information-gain ordering.
type Options struct {
	// MaxCycleLen bounds schema-cycle enumeration for the cycle
	// constraint (default 3; <3 disables the constraint's effect).
	MaxCycleLen int
	// DisableCycle drops the cycle constraint entirely.
	DisableCycle bool
	// DisableOneToOne drops the one-to-one constraint.
	DisableOneToOne bool
	// Samples caps the walk emissions of one sampling refill round per
	// touched component (default 500).
	Samples int
	// MinSamples and Convergence shape the refill loop: emissions come
	// in chunks of MinSamples (default 100; the first chunk sized to the
	// store's n_min deficit, so samples that survived view maintenance
	// count toward the target), and a round stops as soon as no marginal
	// probability of the component moved by more than Convergence
	// (default 0.01) across a chunk — small or near-resolved components
	// stop early, hubs run to the Samples cap. MinSamples equal to the
	// cap makes every round a single chunk. The stop is a pure function
	// of component state and the component's rng stream, so determinism
	// under Seed — including serial/concurrent equality on
	// component-disjoint schedules — is unchanged. MinSamples above the
	// cap is rejected; Convergence must lie in [0,1]. See DESIGN.md,
	// "Adaptive sampling and sample reuse".
	MinSamples int
	// Convergence is the refill loop's early-stop threshold ε; see
	// MinSamples.
	Convergence float64
	// Inference selects how components are estimated. Every component
	// is served piece by piece: the feedback splits it into independent
	// live pieces, and each piece is either enumerated or sampled.
	//
	//   - "auto" (the default): each piece whose instance space fits
	//     ExactBudget is enumerated, the rest are sampled. Enumerated
	//     pieces serve noise-free probabilities, entropy, and
	//     information gain.
	//   - "sampled": the paper's sampler everywhere (every piece of two
	//     or more live members is sampled).
	//   - "exact": exhaustive enumeration everywhere. With ExactBudget 0
	//     the enumeration is unbounded (feasible only for small
	//     components); with a budget, NewSession fails with
	//     ErrExactBudgetExceeded when any component overflows it.
	//
	// Session.InferenceOf reports, per component, whether the whole
	// component enumerates within the budget. Sampled estimates come
	// from a different draw sequence than a walk over the whole
	// component would take. See DESIGN.md, "Hybrid inference" and
	// "Component decomposition".
	Inference string
	// ExactBudget caps the instances of one enumeration — a piece, or a
	// whole component under "exact" and in InferenceOf — and,
	// proportionally, its search work: a budgeted enumeration attempt
	// costs O(budget) even on huge components.
	// 0 means a built-in default under "auto" and unlimited under
	// "exact". Negative values are rejected by NewSession.
	ExactBudget int
	// InstantiateIterations bounds the local search of Instantiate
	// (default 200).
	InstantiateIterations int
	// Strategy selects the suggestion ordering: "info-gain" (default,
	// the paper's heuristic), "random" (no-tool baseline),
	// "least-certain", or "by-confidence". Every session surface honours
	// it; on ConcurrentSession and DurableSession a non-default
	// strategy's Suggest briefly takes exclusive access.
	Strategy string
	// Workers is the caller's CPU budget: it bounds the goroutines of
	// the worker pool of ConcurrentSession.AssertBatch and of the
	// ranking that backs Suggest, which shards only components with more
	// than 1024 uncertain members (smaller ones rank serially). 0 uses
	// all CPUs (GOMAXPROCS); 1 forces a sequential pass. Probabilities
	// and suggestions do not depend on it.
	Workers int
	// ExclusivePairs declares attribute pairs that must never be matched
	// together (a custom MutualExclusion constraint on top of the
	// paper's Γ). Each pair must name two attributes of the network;
	// NewSession rejects an out-of-range entry.
	ExclusivePairs [][2]AttrID
	// Seed makes the session deterministic.
	Seed int64
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.MaxCycleLen == 0 {
		out.MaxCycleLen = constraints.DefaultMaxCycleLen
	}
	if out.InstantiateIterations == 0 {
		out.InstantiateIterations = instantiate.DefaultConfig().Iterations
	}
	return out
}

// validate rejects option values that previously flowed into the core
// configuration unchecked and produced silent misbehavior (a negative
// Samples count disabled resampling entirely, a negative worker bound
// fell back to GOMAXPROCS by accident rather than by contract). The
// serving layer owns input validation: core packages may assume a
// well-formed configuration.
func (o *Options) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MaxCycleLen", o.MaxCycleLen},
		{"Samples", o.Samples},
		{"MinSamples", o.MinSamples},
		{"InstantiateIterations", o.InstantiateIterations},
		{"Workers", o.Workers},
		{"ExactBudget", o.ExactBudget},
	} {
		if f.v < 0 {
			return fmt.Errorf("schemanet: Options.%s must be non-negative, got %d", f.name, f.v)
		}
	}
	// NaN fails the interval test too (comparisons with NaN are false).
	if !(o.Convergence >= 0 && o.Convergence <= 1) {
		return fmt.Errorf("schemanet: Options.Convergence must be in [0,1], got %v", o.Convergence)
	}
	if limit := o.samplesCap(); o.MinSamples > limit {
		return fmt.Errorf("schemanet: Options.MinSamples (%d) must not exceed the Samples cap (%d)",
			o.MinSamples, limit)
	}
	return nil
}

// samplesCap is the per-round emission cap: Samples, or the core
// default when unset.
func (o *Options) samplesCap() int {
	if o.Samples > 0 {
		return o.Samples
	}
	return core.DefaultConfig().Samples
}

// inferenceMode resolves the Inference string into the core mode.
func (o *Options) inferenceMode() (core.InferenceMode, error) {
	switch o.Inference {
	case "", "auto":
		return core.InferAuto, nil
	case "sampled":
		return core.InferSampled, nil
	case "exact":
		return core.InferExact, nil
	}
	return 0, fmt.Errorf("schemanet: unknown inference mode %q (want \"auto\", \"sampled\", or \"exact\")", o.Inference)
}

// Session is a pay-as-you-go reconciliation session over one network:
// it holds the probabilistic matching network, suggests the most
// informative correspondences for review, integrates assertions, and
// instantiates a trusted matching on demand.
//
// A Session value itself is NOT safe for concurrent use: its methods
// must be called from a single goroutine (Suggest and Instantiate draw
// from the session's rng and reuse engine-owned scratch, and Assert
// mutates the probabilistic network in place). Distinct Session values
// are independent and may be used from distinct goroutines.
//
// For many experts asserting against the same network in parallel, wrap
// the session with Concurrent: the resulting ConcurrentSession serves
// concurrent reads lock-free from per-component snapshots and runs
// assertions touching different constraint-connected components in
// parallel; only writes to the same component serialize. See
// ConcurrentSession for the full model.
type Session struct {
	engine   *constraints.Engine
	pmn      *core.PMN
	strategy core.Strategy
	instCfg  instantiate.Config
	rng      *rand.Rand
	workers  int   // Options.Workers, for the concurrent wrapper's pool
	seed     int64 // Options.Seed, for derived deterministic streams

	// base is the compiled base whose network and compiled constraints
	// the session shares with every other session on the same caller
	// network, until its first topology op gives it copies of its own
	// (unshare); nil from then on.
	base *compiledBase
	// names is the full-name index of the session's own network: set
	// when the session stops sharing the base network (unshare) and
	// rebuilt by every AddSchema. Read it through attrNames.
	names map[string]AttrID

	// log is the session's history: every assertion and topology
	// mutation in the order it was applied, Seq = position, assertions
	// in feedback-history order. It is the one record Save encodes,
	// LoadSession and store recovery rebuild, and a durable session's
	// WAL and compaction write. ConcurrentSession appends to it under
	// feedMu or the topology write lock.
	log []wal.Record
}

// ErrUnknownCandidate reports a candidate index outside the network's
// candidate universe. Session and ConcurrentSession return it (wrapped
// with the offending index) instead of panicking: a serving layer must
// never crash on bad input.
var ErrUnknownCandidate = errors.New("schemanet: unknown candidate")

// ErrAlreadyAsserted reports an Assert on a candidate that already
// carries an assertion. Under concurrent serving this is a routine,
// benign collision — two experts can be handed the same suggestion and
// the loser's Assert fails with it — so classify it with errors.Is and
// retry Suggest rather than treating it as a failure.
var ErrAlreadyAsserted = core.ErrAlreadyAsserted

// ErrExactBudgetExceeded reports that a component's matching-instance
// enumeration overflowed Options.ExactBudget under Options.Inference =
// "exact". NewSession returns it (wrapped, with the offending
// component) instead of silently degrading: forcing exact inference is
// a correctness request, so the caller decides whether to raise the
// budget or switch to "auto" (which falls back to sampling on its own).
var ErrExactBudgetExceeded = core.ErrExactBudgetExceeded

// checkCandidate validates a candidate index against the universe.
func (s *Session) checkCandidate(c int) error {
	if n := s.pmn.Network().NumCandidates(); c < 0 || c >= n {
		return fmt.Errorf("%w: index %d outside [0,%d)", ErrUnknownCandidate, c, n)
	}
	return nil
}

// NewSession builds a session for the network's candidate
// correspondences and computes the initial probabilities. The returned
// Session must be confined to one goroutine; see Session.
//
// net is read, never written. Sessions opened on the same *Network
// under the same constraint options (DisableOneToOne, DisableCycle,
// MaxCycleLen, ExclusivePairs) share one compiled copy of it — the
// network's clone and its compiled constraints, built on first use and
// kept as long as net — and each session takes a copy of its own on its
// first topology op (AddSchema, AddCandidates, RetireCandidate). Growing
// net in place through its own mutators drops the compiled copy: later
// sessions see the grown network, existing ones keep the network they
// started from. See DESIGN.md, "One compiled Γ per base network".
func NewSession(net *Network, opts *Options) (*Session, error) {
	return newSession(net, opts, nil, sharedBase)
}

// newSession is NewSession from the compiled base that base returns for
// net, and with an initial logged history of assertions. Production
// passes sharedBase; the tests build the monolithic reference on a
// base of its own. Every option is validated before base compiles
// anything. A non-empty history is resolved against the base network
// and becomes the PMN's initial feedback (core.NewWithHistory): every
// component is filled under it directly — the restore path of
// LoadSession and store recovery. The history, annotators included,
// opens the session's log.
func newSession(net *Network, opts *Options, history []wal.Record,
	base func(*Network, constraintOpts) *compiledBase) (*Session, error) {
	if net.NumCandidates() == 0 {
		return nil, fmt.Errorf("schemanet: network has no candidate correspondences; run Match first")
	}
	o := opts.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	na := net.NumAttributes()
	for i, p := range o.ExclusivePairs {
		for _, a := range p {
			if a < 0 || int(a) >= na {
				return nil, fmt.Errorf("schemanet: Options.ExclusivePairs[%d] = %v: attribute %d outside [0,%d)", i, p, a, na)
			}
		}
	}
	cons := o.constraintOpts()
	if cons.empty() {
		return nil, fmt.Errorf("schemanet: at least one constraint is required")
	}

	var strat core.Strategy
	switch o.Strategy {
	case "", "info-gain":
		strat = core.InfoGainStrategy{}
	case "random":
		strat = core.RandomStrategy{}
	case "least-certain":
		strat = core.LeastCertainStrategy{}
	case "by-confidence":
		strat = core.ByConfidenceStrategy{}
	default:
		return nil, fmt.Errorf("schemanet: unknown strategy %q", o.Strategy)
	}

	cfg := core.DefaultConfig()
	cfg.Sampler = sampling.DefaultConfig()
	cfg.Samples = o.samplesCap()
	cfg.MinSamples = o.MinSamples
	cfg.Convergence = o.Convergence
	mode, err := o.inferenceMode()
	if err != nil {
		return nil, err
	}
	cfg.Inference = mode
	cfg.ExactBudget = o.ExactBudget
	cfg.Workers = o.Workers

	b := base(net, cons)
	var batch []core.Assertion
	if len(history) > 0 {
		if batch, err = resolveHistory(b.net, b.nameIndex(), history); err != nil {
			return nil, fmt.Errorf("schemanet: %w", err)
		}
	}
	engine := b.engine.Fork()
	rng := rand.New(rand.NewSource(o.Seed))
	pmn, err := core.NewWithHistory(engine, cfg, rng, batch)
	if err != nil {
		if len(batch) > 0 {
			return nil, fmt.Errorf("schemanet: replaying session history: %w", err)
		}
		return nil, fmt.Errorf("schemanet: %w", err)
	}
	pmn.SetTopoSeed(o.Seed)
	s := &Session{
		engine:   engine,
		pmn:      pmn,
		strategy: strat,
		instCfg:  instantiate.DefaultConfig(),
		rng:      rng,
		workers:  o.Workers,
		seed:     o.Seed,
		base:     b,
	}
	s.instCfg.Iterations = o.InstantiateIterations
	s.logOps(history...)
	return s, nil
}

// logOps appends operation records to the session's log, numbering
// each with its position.
func (s *Session) logOps(recs ...wal.Record) {
	for _, r := range recs {
		r.Seq = uint64(len(s.log)) + 1
		s.log = append(s.log, r)
	}
}

// pairRecord renders an operation on candidate c — an assertion or a
// retire — as a log record naming the candidate's attributes.
func (s *Session) pairRecord(kind wal.RecordKind, c int) wal.Record {
	net := s.Network()
	cand := net.Candidate(c)
	return wal.Record{Kind: kind, From: net.FullName(cand.A), To: net.FullName(cand.B)}
}

// assertRecord renders annotator's assertion on candidate c.
func (s *Session) assertRecord(annotator string, c int, approved bool) wal.Record {
	rec := s.pairRecord(wal.KindAssert, c)
	rec.Annotator, rec.Approved = annotator, approved
	return rec
}

// Network returns the session's network. It must not be mutated.
// Until the session's first topology op the network is shared with
// every session on the same base network (see NewSession); that op
// gives the session a copy of its own and grows the copy, so a *Network
// taken before it does not see the growth. Take it again after a
// topology op.
func (s *Session) Network() *Network { return s.pmn.Network() }

// Suggest returns the candidate index whose assertion is expected to
// reduce network uncertainty the most (information gain, §IV-D). ok is
// false when every candidate has been asserted.
func (s *Session) Suggest() (c int, ok bool) {
	return s.strategy.Next(s.pmn, s.rng)
}

// Assert integrates an expert statement about candidate c. It returns
// ErrUnknownCandidate (wrapped) when c is outside the candidate
// universe and an error when c was already asserted.
func (s *Session) Assert(c int, correct bool) error {
	if err := s.checkCandidate(c); err != nil {
		return err
	}
	if err := s.pmn.Assert(c, correct); err != nil {
		return err
	}
	s.logOps(s.assertRecord("", c, correct))
	return nil
}

// Probability returns the current probability of candidate c, or
// ErrUnknownCandidate (wrapped) when c is outside the candidate
// universe.
func (s *Session) Probability(c int) (float64, error) {
	if err := s.checkCandidate(c); err != nil {
		return 0, err
	}
	return s.pmn.Probability(c), nil
}

// Uncertainty returns the network uncertainty H(C, P) (Equation 3).
func (s *Session) Uncertainty() float64 { return s.pmn.Entropy() }

// SamplingEmissions returns the total number of random-walk emissions
// requested from the samplers so far, including the initial fill — the
// sampling-effort unit the refill loop's early stop (Options.MinSamples,
// Convergence) economizes. Exact components contribute
// nothing. Use it to compare the cost of budget configurations.
func (s *Session) SamplingEmissions() int { return s.pmn.Emissions() }

// Effort returns the fraction of candidates asserted so far.
func (s *Session) Effort() float64 { return s.pmn.Feedback().Effort() }

// Violations returns the number of distinct constraint violations among
// the raw candidate correspondences.
func (s *Session) Violations() int {
	return s.engine.ViolationCount(s.engine.FullInstance())
}

// Describe renders candidate c with its schemas, attributes, and
// matcher confidence. For an out-of-universe c it returns a placeholder
// string instead of panicking (rendering has no error channel; use
// Probability or Assert for validation that reports ErrUnknownCandidate).
func (s *Session) Describe(c int) string {
	if err := s.checkCandidate(c); err != nil {
		return fmt.Sprintf("<unknown candidate %d>", c)
	}
	return s.Network().DescribeCandidate(c)
}

// Components returns how many constraint-connected components the
// probabilistic matching network decomposes into (1 when the
// constraints connect every candidate). Assertions only ever pay for
// their own component; many small components mean cheap assertions.
func (s *Session) Components() int { return s.pmn.NumComponents() }

// ComponentOf returns the index of the constraint-connected component
// candidate c belongs to. Callers routing work across
// components — e.g. building a component-disjoint assertion schedule
// for ConcurrentSession — use it to group candidates. It returns
// ErrUnknownCandidate (wrapped) for an out-of-universe c.
func (s *Session) ComponentOf(c int) (int, error) {
	if err := s.checkCandidate(c); err != nil {
		return 0, err
	}
	return s.pmn.ComponentOf(c), nil
}

// InferenceOf reports how component k is served at its current
// feedback. Under Options.Inference = "auto" it is InferenceExact when
// the whole component enumerates within ExactBudget — every piece is
// then enumerated and the probabilities are noise-free — and
// InferenceSampled otherwise, even when every piece happens to be
// enumerated; a component can flip from sampled to exact as assertions
// shrink it, and never flips back. Under "sampled" and "exact" it
// reports that mode. Under "auto" the answer is computed by a budgeted
// enumeration of the component until it first reports exact, and is
// kept from then on. k is a component index as returned by ComponentOf,
// in [0, Components()).
func (s *Session) InferenceOf(k int) (InferenceMode, error) {
	if k < 0 || k >= s.pmn.NumComponents() {
		return 0, fmt.Errorf("schemanet: component index %d outside [0,%d)", k, s.pmn.NumComponents())
	}
	return s.pmn.ComponentInference(k), nil
}

// Instantiate derives a trusted matching from the current state: a
// maximal constraint-consistent set of correspondences with near-minimal
// repair distance and near-maximal likelihood (§V, Algorithm 2). It can
// be called at any time, with any amount of feedback. The search runs
// per independent unit — one live piece of a component — and merges
// the per-unit maximal instances with the approved correspondences (the
// objective factorizes; see DESIGN.md, "Component decomposition").
func (s *Session) Instantiate() *Matching {
	// Retired candidates are excluded like disapprovals: their conflict
	// rows are cleared, so without the mask the local search could
	// re-acquire them through the repair step.
	dis := s.pmn.Feedback().Disapproved()
	if rm := s.engine.RetiredMask(); rm != nil && !rm.Empty() {
		d := dis.Clone()
		d.UnionWith(rm)
		dis = d
	}
	stores, masks := s.pmn.InstantiationUnits()
	inst := instantiate.HeuristicDecomposed(
		s.engine, stores, masks,
		s.pmn.Probabilities(),
		s.pmn.Feedback().Approved(), dis,
		s.instCfg, s.rng)
	return schema.MatchingFromCandidates(s.Network(), inst.Members())
}
