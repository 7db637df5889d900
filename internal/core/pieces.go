package core

import (
	"fmt"
	"math/rand"
	"sort"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/sampling"
)

// Piecewise inference. Feedback cuts a component's conditioned instance
// space into independent factors (constraints.Engine.LivePieces): a
// live member is unasserted and does not conflict with F+, a piece is a
// connected class of live members under the violations among them, and
// every matching instance is F+ plus one maximal set per piece chosen
// independently. The piece backend keeps one unit per piece of two or
// more live members; a piece of one live member has no violation and
// reads p = 1 without a store, and a non-live unasserted member reads
// p = 0. Pieces only split under feedback, so an assertion
// view-maintains, re-partitions and refills only its own piece, and the
// new pieces inherit the projections of the old piece's instances (see
// DESIGN.md, "Component decomposition").

// Piece markers in PMN.pieceOf for members outside any piece store.
const (
	notLive    = -1 // asserted, retired, or in conflict with F+: p = F's verdict or 0
	singleLive = -2 // a piece of one live member: p = 1
)

// piece is one live piece of two or more members.
type piece struct {
	unit
	mask  *bitset.Set
	exact bool // the store holds the piece's complete enumeration
	dirty bool // estimates changed since the last Refresh
	gone  bool // split since it was created
}

// pieceInference serves a component piece by piece: each piece that
// fits the enumeration budget (every piece under InferExact, pieces of
// at most maxAttemptFree members under InferAuto) is enumerated with F+
// fixed, every other piece is walked by the sampler over the piece's
// members only, on a stream seeded from the component's base seed and
// the piece's members, so a piece's draws never depend on assertions in
// other pieces.
type pieceInference struct {
	p      *PMN
	engine *constraints.Engine
	// approved/disapproved are the component's feedback masks (shared,
	// written by the owning component); members is its explicit member
	// list.
	approved, disapproved *bitset.Set
	members               []int
	pieces                []*piece // slots; PMN.pieceOf indexes them
	units                 []*unit  // the pieces' units, rebuilt after a split
	pending               []*piece // created since the last Refill
	// contradicted records approvals that conflict with each other: the
	// component has no matching instance left.
	contradicted bool
	seed         int64
	plan         budgetPlan
	budget       int // enumeration budget; 0 = unlimited
	maxEnum      int // largest piece (in members) enumerated; 0 = walk every piece

	// Walk state, built on the first walk: one sampler over the
	// component's engine fork whose rng is re-seeded per piece.
	sampler *sampling.Sampler
	rng     *rand.Rand
	within  *bitset.Set // scratch: piece ∪ F+
	probe   *bitset.Set // scratch: stripped instance ∪ F+
	// prev/cur are marginal-vector scratch for the convergence test.
	prev, cur []float64
}

// newPieceInference builds component k's backend: it partitions the
// component under its feedback and queues every piece for the caller's
// Refill. Under forced InferExact with a non-zero budget the whole
// component is enumerated first, and an overflow fails with
// ErrExactBudgetExceeded. st is the component's base stream; a trivial
// partition draws its seed from the session rng unless the component
// can never walk (forced InferExact, or InferAuto where the whole
// component fits the budget), so the mode decides the draw exactly as
// it decides whether any piece is walked.
func (p *PMN) newPieceInference(k int, c *component, st stream) (*pieceInference, error) {
	members := c.members
	if members == nil {
		members = make([]int, len(p.probs))
		for i := range members {
			members[i] = i
		}
	}
	inf := &pieceInference{
		p: p, engine: c.engine, approved: c.approved, disapproved: c.disapproved,
		members: members, seed: st.seed, plan: resolveBudget(p.cfg), budget: p.exactBudget(),
	}
	walks := true
	switch p.cfg.Inference {
	case InferExact:
		if inf.budget > 0 {
			if err := p.enumerateWhole(c, inf.budget); err != nil {
				return nil, fmt.Errorf("core: component %d (%d candidates): %w: %v",
					k, len(members), ErrExactBudgetExceeded, err)
			}
		}
		inf.maxEnum, walks = len(members), false
	case InferAuto:
		inf.maxEnum = maxAttemptFree(inf.budget)
		walks = st.shared == nil || !p.wholeFits(c)
	}
	if st.shared != nil && walks {
		inf.seed = st.shared.Int63()
	}
	for _, m := range members {
		p.pieceOf[m] = notLive
	}
	if !c.engine.Consistent(c.approved) {
		inf.contradicted = true
		return inf, nil
	}
	inf.place(c.engine.LivePieces(members, c.approved, c.disapproved), -1, nil)
	return inf, nil
}

// place installs new pieces, the first into slot (or a fresh slot when
// slot < 0). Under a split, parent's instances are projected onto each
// new piece: the largest takes over parent's store, restricted in
// place, and the others copy their projections. A piece inherits
// parent's completeness: the projections of all instances are all of a
// factor's instances. With parent nil the stores start empty.
func (inf *pieceInference) place(parts [][]int, slot int, parent *piece) {
	p := inf.p
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
		pc := &piece{dirty: true}
		pc.members = members
		if slot < 0 {
			slot = len(inf.pieces)
			inf.pieces = append(inf.pieces, pc)
		} else {
			inf.pieces[slot] = pc
		}
		for j, m := range members {
			p.pieceOf[m] = int32(slot)
			p.pieceCol[m] = int32(j)
		}
		inf.pending = append(inf.pending, pc)
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
	inf.relink()
}

// relink rebuilds the unit list after the piece slots changed.
func (inf *pieceInference) relink() {
	inf.units = inf.units[:0]
	for _, pc := range inf.pieces {
		inf.units = append(inf.units, &pc.unit)
	}
}

// remove drops the piece in slot i by moving the last piece into it.
func (inf *pieceInference) remove(i int) {
	last := len(inf.pieces) - 1
	if i != last {
		moved := inf.pieces[last]
		inf.pieces[i] = moved
		for _, m := range moved.members {
			inf.p.pieceOf[m] = int32(i)
		}
	}
	inf.pieces[last] = nil
	inf.pieces = inf.pieces[:last]
	inf.relink()
}

// Apply view-maintains c's piece and re-partitions it. Asserting a
// member outside every piece store changes no other member: a single
// live member has no violation, a non-live one is in no instance —
// unless it is approved, which contradicts F+ and empties Ω.
func (inf *pieceInference) Apply(c int, approve bool) {
	p := inf.p
	if inf.contradicted {
		return
	}
	slot := int(p.pieceOf[c])
	p.pieceOf[c] = notLive
	switch slot {
	case singleLive:
		return
	case notLive:
		if approve {
			inf.contradict()
		}
		return
	}
	pc := inf.pieces[slot]
	if pc.exact {
		pc.store.ApplyAssertionExact(c, approve, inf.maximalInPiece(pc))
		pc.store.MarkComplete()
	} else {
		pc.store.ApplyAssertion(c, approve)
	}
	pc.gone = true
	for _, m := range pc.members {
		p.pieceOf[m] = notLive
	}
	inf.place(inf.engine.LivePieces(pc.members, inf.approved, inf.disapproved), slot, pc)
	if inf.pieces[slot] == pc {
		// No new piece has two members: the slot is empty.
		inf.remove(slot)
	}
}

// maximalInPiece is the exact view maintenance's disapproval probe for
// one piece: the stripped instance plus F+ must be maximal over the
// piece's members under the updated exclusions.
func (inf *pieceInference) maximalInPiece(pc *piece) func(*bitset.Set) bool {
	if inf.probe == nil {
		inf.probe = inf.engine.NewInstance()
	}
	return func(inst *bitset.Set) bool {
		inf.probe.CopyFrom(inst)
		inf.probe.UnionWith(inf.approved)
		return inf.engine.MaximalWithin(inf.probe, inf.disapproved, pc.members)
	}
}

// contradict drops every piece: approvals that conflict with each other
// leave no matching instance.
func (inf *pieceInference) contradict() {
	inf.contradicted = true
	for _, m := range inf.members {
		inf.p.pieceOf[m] = notLive
	}
	inf.pieces, inf.units, inf.pending = nil, nil, nil
}

// Refill settles every piece created since the last Refill, in slot
// order: a piece not known exact is enumerated when it fits the
// budget, and otherwise walked toward n_min unless its store is
// complete. Each piece walks its own stream, so the order never changes
// a result.
func (inf *pieceInference) Refill() int {
	emitted := 0
	for _, pc := range inf.pending {
		if pc.gone || pc.exact {
			continue
		}
		if len(pc.members) <= inf.maxEnum && inf.enumerate(pc) {
			continue
		}
		if pc.store.NeedsResample() {
			emitted += inf.walk(pc)
		}
	}
	inf.pending = inf.pending[:0]
	return emitted
}

// enumerate replaces pc's store with its complete enumeration when the
// piece's instance space fits the budget.
func (inf *pieceInference) enumerate(pc *piece) bool {
	inf.setWithin(pc)
	insts, err := sampling.EnumerateWithin(inf.engine, inf.approved, inf.disapproved, inf.within, inf.budget)
	if err != nil {
		return false
	}
	p := inf.p
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
func (inf *pieceInference) setWithin(pc *piece) {
	if inf.within == nil {
		inf.within = inf.engine.NewInstance()
	}
	inf.within.CopyFrom(pc.mask)
	inf.within.UnionWith(inf.approved)
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
func (inf *pieceInference) walk(pc *piece) int {
	if inf.sampler == nil {
		inf.rng = rand.New(rand.NewSource(0))
		inf.sampler = sampling.NewSampler(inf.engine, inf.p.cfg.Sampler, inf.rng)
	}
	inf.rng.Seed(pieceSeed(inf.seed, pc.members))
	inf.setWithin(pc)
	// The piece's share of the steps a walk over the whole component
	// would spend inside it (see SamplePiece). It reads the piece and the
	// component's size only, so the piece's draws stay independent of
	// assertions in other pieces.
	share := float64(len(pc.members)) / float64(len(inf.members))
	total := 0
	for round := 0; round < 2 && pc.store.NeedsResample(); round++ {
		total += inf.refillRound(pc.store, share)
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
func (inf *pieceInference) refillRound(st *sampling.Store, share float64) int {
	emitted := 0
	for emitted < inf.plan.max {
		chunk := inf.plan.min
		if emitted == 0 {
			// Survivor reuse: instances kept by view maintenance count
			// toward the target, so the first chunk covers only the n_min
			// deficit (never less than one convergence-testable chunk).
			if d := st.NMin() - st.Size(); d > chunk {
				chunk = d
			}
		}
		if rem := inf.plan.max - emitted; chunk > rem {
			chunk = rem
		}
		last := emitted+chunk >= inf.plan.max
		if emitted == 0 && !last {
			m := st.TrackedCount()
			if cap(inf.prev) < m {
				inf.prev, inf.cur = make([]float64, m), make([]float64, m)
			}
			inf.prev, inf.cur = inf.prev[:m], inf.cur[:m]
			st.MarginalsInto(inf.prev)
		}
		inf.sampler.SamplePiece(st, inf.approved, inf.disapproved, inf.within, chunk, share)
		emitted += chunk
		if last {
			break
		}
		st.MarginalsInto(inf.cur)
		if maxAbsDelta(inf.prev, inf.cur) <= inf.plan.conv {
			break
		}
		inf.prev, inf.cur = inf.cur, inf.prev
	}
	return emitted
}

func (inf *pieceInference) Refresh(probs []float64) float64 {
	p := inf.p
	for _, pc := range inf.pieces {
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
	for _, m := range inf.members {
		switch p.pieceOf[m] {
		case notLive:
			probs[m] = 0
		case singleLive:
			probs[m] = 1
		}
		h += termAt(probs, inf.approved, inf.disapproved, m)
	}
	return h
}

func (inf *pieceInference) Units() []*unit { return inf.units }

func (inf *pieceInference) UnitOf(c int) *unit {
	if i := inf.p.pieceOf[c]; i >= 0 {
		return &inf.pieces[i].unit
	}
	return nil
}

// Grow widens the backend to an n-candidate universe after a topology
// change that left the component's membership unchanged: piece masks
// and stores widen in place and universe-sized scratch is dropped.
func (inf *pieceInference) Grow(n int) {
	for _, pc := range inf.pieces {
		pc.mask.Grow(n)
		pc.store.GrowUniverse(n, inf.p.pieceCol)
	}
	if inf.sampler != nil {
		// The walk's scratch is universe-sized; drop it so the next walk
		// reallocates at the new width.
		inf.sampler.ResetScratch()
	}
	inf.within, inf.probe = nil, nil
}

// pieceCounts reports the live pieces (single live members included)
// and how many of them are served exactly: single live members,
// enumerated pieces, and pieces projected from an enumeration.
func (inf *pieceInference) pieceCounts() (pieces, exact int) {
	for _, m := range inf.members {
		if inf.p.pieceOf[m] == singleLive {
			pieces++
			exact++
		}
	}
	for _, pc := range inf.pieces {
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
func (inf *pieceInference) instantiationUnits(stores []*sampling.Store, masks []*bitset.Set) ([]*sampling.Store, []*bitset.Set) {
	order := append([]*piece(nil), inf.pieces...)
	sort.Slice(order, func(a, b int) bool { return order[a].members[0] < order[b].members[0] })
	for _, pc := range order {
		m := pc.mask.Clone()
		m.UnionWith(inf.approved)
		stores, masks = append(stores, pc.store), append(masks, m)
	}
	fixed := inf.approved.Clone()
	for _, c := range inf.members {
		if inf.p.pieceOf[c] == singleLive {
			fixed.Add(c)
		}
	}
	if !fixed.Empty() {
		stores, masks = append(stores, nil), append(masks, fixed)
	}
	return stores, masks
}
