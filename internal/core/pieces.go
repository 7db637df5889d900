package core

import (
	"fmt"
	"math/rand"

	"schemanet/internal/bitset"
	"schemanet/internal/sampling"
)

// Piecewise inference. Feedback cuts a component's conditioned instance
// space into independent factors (constraints.Engine.LivePieces): a
// live member is unasserted and does not conflict with F+, a piece is a
// connected class of live members under the violations among them, and
// every matching instance is F+ plus one maximal set per piece chosen
// independently. A component keeps one piece store per piece of two or
// more live members; a piece of one live member has no violation and
// reads p = 1 without a store, and a non-live unasserted member reads
// p = 0. Each piece that fits the enumeration budget (every piece under
// InferExact, pieces of at most maxAttemptFree members under InferAuto)
// is enumerated with F+ fixed; every other piece is walked by the
// sampler over the piece's members only, on a stream seeded from the
// component's base seed and the piece's members, so a piece's draws
// never depend on assertions in other pieces. Pieces only split under
// feedback, so an assertion view-maintains, re-partitions and refills
// only its own piece, and the new pieces inherit the projections of the
// old piece's instances (see DESIGN.md, "Component decomposition").

// Piece markers in PMN.pieceOf for members outside any piece store.
const (
	notLive    = -1 // asserted, retired, or in conflict with F+: p = F's verdict or 0
	singleLive = -2 // a piece of one live member: p = 1
)

// piece is one live piece of two or more members: one independent
// factor of its component's distribution, served by a store whose
// columns are the members. Asserting a member changes marginals only
// inside its piece, so its information gain is the piece's
// H_U − E[H_U | c] (see topk.go).
type piece struct {
	store   *sampling.Store
	members []int   // the store's columns as global ids
	entropy float64 // Σ H(p_c) over members
	// ties/gain cache the piece's maximal-gain tie set (ascending ids)
	// and gain (-1 when no member is uncertain); fresh is the validity
	// bit, cleared whenever the piece's estimates change.
	ties  []int
	gain  float64
	fresh bool
	mask  *bitset.Set // members as a mask
	exact bool        // the store holds the piece's complete enumeration
	dirty bool        // estimates changed since the last refresh
	gone  bool        // split since it was created
}

// newComponent builds component k over members: an engine fork of its
// own (walk scratch is engine-owned, so concurrent component
// maintenance needs per-component forks), feedback masks copied from F,
// and its pieces under that feedback, queued for the caller's refill.
// Under forced InferExact with a non-zero budget the whole component is
// enumerated first, and an overflow fails with ErrExactBudgetExceeded.
// st is the component's base stream; the one component of a trivial
// partition draws its seed from the session rng unless it can never
// walk (forced InferExact, or InferAuto where the whole component fits
// the budget), so the mode decides the draw exactly as it decides
// whether any piece is walked.
func (p *PMN) newComponent(k int, members []int, st stream) (*component, error) {
	n := len(p.probs)
	c := &component{
		p: p, members: members, mask: bitset.FromIndices(n, members...),
		engine: p.engine.Fork(), approved: bitset.New(n), disapproved: bitset.New(n),
		seed: st.seed, plan: resolveBudget(p.cfg), budget: p.exactBudget(),
	}
	for _, m := range members {
		p.pieceOf[m] = notLive
		if p.feedback.IsApproved(m) {
			c.approved.Add(m)
		} else if p.feedback.IsDisapproved(m) {
			c.disapproved.Add(m)
		}
	}
	walks := true
	switch p.cfg.Inference {
	case InferExact:
		if c.budget > 0 {
			if err := c.enumerateWhole(); err != nil {
				return nil, fmt.Errorf("core: component %d (%d candidates): %w: %v",
					k, len(members), ErrExactBudgetExceeded, err)
			}
		}
		c.maxEnum, walks = len(members), false
	case InferAuto:
		c.maxEnum = maxAttemptFree(c.budget)
		walks = st.shared == nil || !c.wholeFits()
	}
	if st.shared != nil && walks {
		c.seed = st.shared.Int63()
	}
	if !c.engine.Consistent(c.approved) {
		c.contradicted = true
		return c, nil
	}
	c.place(c.engine.LivePieces(members, c.approved, c.disapproved), -1, nil)
	return c, nil
}

// place installs new pieces, the first into slot (or a fresh slot when
// slot < 0). Under a split, parent's instances are projected onto each
// new piece: the largest takes over parent's store, restricted in
// place, and the others copy their projections. A piece inherits
// parent's completeness: the projections of all instances are all of a
// factor's instances. With parent nil the stores start empty.
func (c *component) place(parts [][]int, slot int, parent *piece) {
	p := c.p
	n := len(p.probs)
	heir := -1 // the part that takes over parent's store
	for i, members := range parts {
		if len(members) > 1 && parent != nil && (heir < 0 || len(members) > len(parts[heir])) {
			heir = i
		}
	}
	var proj *bitset.Set
	var heirPc *piece
	for i, members := range parts {
		if len(members) == 1 {
			p.pieceOf[members[0]] = singleLive
			continue
		}
		pc := &piece{members: members, dirty: true}
		if slot < 0 {
			slot = len(c.pieces)
			c.pieces = append(c.pieces, pc)
		} else {
			c.pieces[slot] = pc
		}
		for j, m := range members {
			p.pieceOf[m] = int32(slot)
			p.pieceCol[m] = int32(j)
		}
		c.pending = append(c.pending, pc)
		slot = -1
		if i == heir {
			heirPc = pc
			continue
		}
		pc.mask = bitset.FromIndices(n, members...)
		pc.store = sampling.NewComponentStore(n, p.nmin(), members, p.pieceCol)
		if parent == nil {
			continue
		}
		if proj == nil {
			proj = bitset.New(n)
		}
		parent.store.ForEachInstance(func(inst *bitset.Set) bool {
			proj.CopyFrom(inst)
			proj.IntersectWith(pc.mask)
			pc.store.Add(proj)
			return true
		})
		if parent.store.Complete() {
			pc.store.MarkComplete()
			pc.exact = parent.exact
		}
	}
	if heirPc != nil {
		// Last: the other parts project from parent's unrestricted store.
		// The heir also takes over parent's mask, cleared of the members
		// it does not keep.
		heirPc.store, heirPc.exact = parent.store, parent.exact && parent.store.Complete()
		heirPc.store.Restrict(heirPc.members, p.pieceCol)
		heirPc.mask = parent.mask
		keep := p.pieceOf[heirPc.members[0]]
		for _, m := range parent.members {
			if p.pieceOf[m] != keep {
				heirPc.mask.Remove(m)
			}
		}
	}
}

// remove drops the piece in slot i by moving the last piece into it.
func (c *component) remove(i int) {
	last := len(c.pieces) - 1
	if i != last {
		moved := c.pieces[last]
		c.pieces[i] = moved
		for _, m := range moved.members {
			c.p.pieceOf[m] = int32(i)
		}
	}
	c.pieces[last] = nil
	c.pieces = c.pieces[:last]
}

// apply view-maintains cand's piece and re-partitions it. Asserting a
// member outside every piece store changes no other member: a single
// live member has no violation, a non-live one is in no instance —
// unless it is approved, which contradicts F+ and empties Ω.
func (c *component) apply(cand int, approve bool) {
	p := c.p
	if c.contradicted {
		return
	}
	slot := int(p.pieceOf[cand])
	p.pieceOf[cand] = notLive
	switch slot {
	case singleLive:
		return
	case notLive:
		if approve {
			c.contradict()
		}
		return
	}
	pc := c.pieces[slot]
	if pc.exact {
		pc.store.ApplyAssertionExact(cand, approve, c.maximalInPiece(pc))
		pc.store.MarkComplete()
	} else {
		pc.store.ApplyAssertion(cand, approve)
	}
	pc.gone = true
	for _, m := range pc.members {
		p.pieceOf[m] = notLive
	}
	c.place(c.engine.LivePieces(pc.members, c.approved, c.disapproved), slot, pc)
	if c.pieces[slot] == pc {
		// No new piece has two members: the slot is empty.
		c.remove(slot)
	}
}

// maximalInPiece is the exact view maintenance's disapproval probe for
// one piece: the stripped instance plus F+ must be maximal over the
// piece's members under the updated exclusions.
func (c *component) maximalInPiece(pc *piece) func(*bitset.Set) bool {
	if c.probe == nil {
		c.probe = c.engine.NewInstance()
	}
	return func(inst *bitset.Set) bool {
		c.probe.CopyFrom(inst)
		c.probe.UnionWith(c.approved)
		return c.engine.MaximalWithin(c.probe, c.disapproved, pc.members)
	}
}

// contradict drops every piece: approvals that conflict with each other
// leave no matching instance.
func (c *component) contradict() {
	c.contradicted = true
	for _, m := range c.members {
		c.p.pieceOf[m] = notLive
	}
	c.pieces, c.pending = nil, nil
}

// refill settles every piece created since the last refill, in slot
// order: a piece not known exact is enumerated when it fits the
// budget, and otherwise walked toward n_min unless its store is
// complete. Each piece walks its own stream, so the order never changes
// a result.
func (c *component) refill() int {
	emitted := 0
	for _, pc := range c.pending {
		if pc.gone || pc.exact {
			continue
		}
		if len(pc.members) <= c.maxEnum && c.enumerate(pc) {
			continue
		}
		if pc.store.NeedsResample() {
			emitted += c.walk(pc)
		}
	}
	c.pending = c.pending[:0]
	return emitted
}

// enumerate replaces pc's store with its complete enumeration when the
// piece's instance space fits the budget.
func (c *component) enumerate(pc *piece) bool {
	c.setWithin(pc)
	insts, err := sampling.EnumerateWithin(c.engine, c.approved, c.disapproved, c.within, c.budget)
	if err != nil {
		return false
	}
	p := c.p
	st := sampling.NewComponentStore(len(p.probs), p.nmin(), pc.members, p.pieceCol)
	for _, inst := range insts {
		inst.IntersectWith(pc.mask)
		st.Add(inst)
	}
	st.MarkComplete()
	pc.store, pc.exact = st, true
	return true
}

// setWithin sets the walk and enumeration mask to pc's members plus F+:
// approved members are in every instance and carry the contracted
// violations, while the store keeps only the piece's columns.
func (c *component) setWithin(pc *piece) {
	if c.within == nil {
		c.within = c.engine.NewInstance()
	}
	c.within.CopyFrom(pc.mask)
	c.within.UnionWith(c.approved)
}

// pieceSeed derives a piece's stream seed from the component's base
// seed and the piece's members (FNV-1a), so the stream is a function of
// the piece alone.
func pieceSeed(base int64, members []int) int64 {
	h := fnvMix(fnvOffset, uint64(base))
	for _, m := range members {
		h = fnvMix(h, uint64(m))
	}
	return int64(h)
}

// walk resamples pc toward n_min (§III-B), concluding completeness
// after two short rounds, and returns the emissions requested.
func (c *component) walk(pc *piece) int {
	if c.sampler == nil {
		c.rng = rand.New(rand.NewSource(0))
		c.sampler = sampling.NewSampler(c.engine, c.p.cfg.Sampler, c.rng)
	}
	c.rng.Seed(pieceSeed(c.seed, pc.members))
	c.setWithin(pc)
	// The piece's share of the steps a walk over the whole component
	// would spend inside it (see SamplePiece). It reads the piece and the
	// component's size only, so the piece's draws stay independent of
	// assertions in other pieces.
	share := float64(len(pc.members)) / float64(len(c.members))
	total := 0
	for round := 0; round < 2 && pc.store.NeedsResample(); round++ {
		total += c.refillRound(pc.store, share)
	}
	if pc.store.NeedsResample() {
		// Two consecutive rounds could not reach n_min: the actual
		// number of matching instances is below n_min and the store
		// holds all of them. The chunk loop preserves the premise —
		// every round's first chunk covers at least the n_min deficit,
		// so a round that ends below n_min genuinely failed to find the
		// missing instances rather than never asking for them.
		pc.store.MarkComplete()
	}
	return total
}

// refillRound emits one resampling round's walk samples in chunks and
// returns the emissions requested. The round stops at the cap, or once
// no marginal of the piece moved by more than plan.conv across a
// chunk; a chunk that discovered no new distinct instance has delta 0
// and stops likewise. The marginals after one chunk are the baseline of
// the next, so each chunk costs one marginal pass. The stop decision is
// a pure function of the piece's store and stream, so serial execution,
// batch replay, and concurrent component-disjoint interleavings
// reconstruct identical stores.
func (c *component) refillRound(st *sampling.Store, share float64) int {
	emitted := 0
	for emitted < c.plan.max {
		chunk := c.plan.min
		if emitted == 0 {
			// Survivor reuse: instances kept by view maintenance count
			// toward the target, so the first chunk covers only the n_min
			// deficit (never less than one convergence-testable chunk).
			if d := st.NMin() - st.Size(); d > chunk {
				chunk = d
			}
		}
		if rem := c.plan.max - emitted; chunk > rem {
			chunk = rem
		}
		last := emitted+chunk >= c.plan.max
		if emitted == 0 && !last {
			m := st.TrackedCount()
			if cap(c.prev) < m {
				c.prev, c.cur = make([]float64, m), make([]float64, m)
			}
			c.prev, c.cur = c.prev[:m], c.cur[:m]
			st.MarginalsInto(c.prev)
		}
		c.sampler.SamplePiece(st, c.approved, c.disapproved, c.within, chunk, share)
		emitted += chunk
		if last {
			break
		}
		st.MarginalsInto(c.cur)
		if maxAbsDelta(c.prev, c.cur) <= c.plan.conv {
			break
		}
		c.prev, c.cur = c.cur, c.prev
	}
	return emitted
}

// refresh writes the component's probabilities into PMN.probs from
// the pieces whose estimates changed and the members outside every
// piece store, and returns the component's entropy term.
func (c *component) refresh() float64 {
	probs := c.p.probs
	for _, pc := range c.pieces {
		if !pc.dirty {
			continue
		}
		pc.store.ProbabilitiesInto(probs)
		h := 0.0
		for _, m := range pc.members {
			h += BinaryEntropy(probs[m])
		}
		pc.entropy, pc.fresh, pc.dirty = h, false, false
	}
	h := 0.0
	for _, m := range c.members {
		switch c.p.pieceOf[m] {
		case notLive:
			probs[m] = 0
		case singleLive:
			probs[m] = 1
		}
		h += termAt(probs, c.approved, c.disapproved, m)
	}
	return h
}

// pieceFor returns member cand's piece, or nil when cand is in no piece
// store.
func (c *component) pieceFor(cand int) *piece {
	if i := c.p.pieceOf[cand]; i >= 0 {
		return c.pieces[i]
	}
	return nil
}

// grow widens the component to an n-candidate universe after a topology
// change that left its membership unchanged: masks and piece stores
// widen in place, and universe-sized scratch is dropped so the next use
// reallocates at the new width.
func (c *component) grow(n int) {
	c.mask.Grow(n)
	c.approved.Grow(n)
	c.disapproved.Grow(n)
	for _, pc := range c.pieces {
		pc.mask.Grow(n)
		pc.store.GrowUniverse(n, c.p.pieceCol)
	}
	if c.sampler != nil {
		c.sampler.ResetScratch()
	}
	c.within, c.probe, c.topScratch = nil, nil, nil
}

// pieceCounts reports the live pieces (single live members included)
// and how many of them are served exactly: single live members,
// enumerated pieces, and pieces projected from an enumeration.
func (c *component) pieceCounts() (pieces, exact int) {
	for _, m := range c.members {
		if c.p.pieceOf[m] == singleLive {
			pieces++
			exact++
		}
	}
	for _, pc := range c.pieces {
		pieces++
		if pc.exact {
			exact++
		}
	}
	return pieces, exact
}

// instantiationUnits appends the component's (store, mask) units for
// the instantiation heuristic, pieces ordered by smallest member: each
// piece's store with mask piece ∪ F+, and then F+ plus the single live
// members as one store-less unit, which is its own only instance. A
// component whose approvals contradict each other has no instance; its
// store-less unit is F+ alone, so approvals are never dropped.
func (c *component) instantiationUnits(stores []*sampling.Store, masks []*bitset.Set) ([]*sampling.Store, []*bitset.Set) {
	for _, pc := range sortedPieces(c.pieces) {
		m := pc.mask.Clone()
		m.UnionWith(c.approved)
		stores, masks = append(stores, pc.store), append(masks, m)
	}
	fixed := c.approved.Clone()
	for _, m := range c.members {
		if c.p.pieceOf[m] == singleLive {
			fixed.Add(m)
		}
	}
	if !fixed.Empty() {
		stores, masks = append(stores, nil), append(masks, fixed)
	}
	return stores, masks
}
