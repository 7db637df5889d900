package schemanet

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"schemanet/internal/core"
)

// ConcurrentSession serves one reconciliation session to many
// goroutines at once — the paper's pay-as-you-go loop is inherently
// interactive, with many experts asserting in parallel against the same
// network. It exploits the component decomposition's independence
// guarantee (no constraint violation ever spans two
// constraint-connected components, see DESIGN.md):
//
//   - Reads — Probability, Uncertainty, Suggest — are lock-free: they
//     load an atomically-published immutable snapshot per component
//     (probabilities, cached entropy term, gain ranking) and never
//     block on writers.
//   - Writes — Assert, AssertBatch — take one lock per touched
//     component. Assertions on different components proceed in
//     parallel (view maintenance, resampling, and re-ranking are all
//     component-local); assertions on the same component serialize.
//   - Snapshot publication is *coalesced*: writers only mark a
//     component dirty — a single Assert, a topology op for the
//     components it rebuilds, and construction for every component —
//     and the next reader that touches the component publishes once,
//     under the component's lock, no matter how many writes landed in
//     between. A burst of assertions between reads pays for one
//     publication instead of one per assertion, and reads remain
//     fresh — a dirty load upgrades before serving. Batch writes
//     publish eagerly (once per touched component per batch) since the
//     batch already amortizes the cost.
//   - Gain re-ranking is *deferred* further still: publications are
//     probs-only, and the next Suggest re-ranks just the components
//     whose published snapshot is unranked — through the lazy
//     bound-pruned top-k evaluator (core.PMN.TopGains), skipping
//     entirely any component whose entropy term cannot reach the best
//     gain already found. Assert-only workloads never re-rank at all.
//     The ranking is a deterministic function of component state, so
//     suggestions are exactly what eager exhaustive re-ranking would
//     produce.
//   - Each component samples from its own deterministic rng stream
//     (seeded from the session seed at construction), so a
//     component-disjoint assertion schedule produces probabilities
//     bit-identical to the same schedule applied serially — however the
//     goroutines interleave.
//
// Obtain one with Session.Concurrent or NewConcurrentSession. All
// ConcurrentSession methods are safe for concurrent use.
type ConcurrentSession struct {
	s   *Session
	pmn *core.PMN

	// topoMu guards the component universe itself: every public method
	// holds the read side (the network, the partition, and the locks /
	// snaps slices below are all stable while any reader is in flight),
	// and the topology mutators — AddSchema, AddCandidates,
	// RetireCandidate — take the write side, excluding every other
	// operation while components merge or split and the per-component
	// lock and snapshot tables are rebuilt. Go's RWMutex is
	// writer-preferring, so a steady read load cannot starve arrivals.
	// Lock order: topoMu, then batchMu, then component locks ascending,
	// then feedMu.
	topoMu sync.RWMutex

	// locks[k] serializes all maintenance of component k. Multi-lock
	// paths (Instantiate, Save) acquire in ascending component order;
	// feedMu is only ever taken while holding at most the locks already
	// held, and always after them — the lock order "component locks
	// ascending, then feedMu" is acyclic.
	locks []sync.Mutex
	// snaps[k] is component k's published snapshot, nil until its first
	// publication; batch writers store a fresh probs-only snapshot after
	// maintenance, suggestion readers upgrade it to a ranked one on
	// demand (rankComponent), and everything else only ever Loads — and
	// only once dirty[k] reads false. The Ranked flag travels on the
	// snapshot itself, so flag and data swap in one atomic store.
	snaps []atomic.Pointer[core.ComponentSnapshot]
	// dirty[k] records that component k's state has advanced past its
	// published snapshot, or that it was never published: construction,
	// rebuilt components, and single Asserts set it instead of
	// publishing, and the next reader that needs component k publishes
	// under locks[k] — storing the fresh snapshot *before* clearing the
	// flag, so a reader that observes dirty[k] == false is guaranteed to
	// load a snapshot at least as fresh as the clearing writer's.
	dirty []atomic.Bool
	// feedMu guards the PMN-global feedback (history + F±) and the
	// session's operation log, appended in the same critical section so
	// the two stay in one order: recording is cheap and strictly
	// serialized, while the expensive component maintenance reads only
	// component-local feedback masks.
	feedMu sync.Mutex
	// batchMu closes AssertBatch's record→apply window against the
	// whole-network operations: a batch holds the read side from before
	// it records the feedback until every component group has been
	// applied, and lockAll takes the write side first, so Instantiate
	// and Save can never observe feedback recorded for a batch whose
	// stores and probabilities are still pre-batch. Single Asserts need
	// no part in this — they record and apply under their component's
	// lock, which lockAll already excludes. Lock order: batchMu, then
	// component locks ascending, then feedMu.
	batchMu sync.RWMutex
	// sugMu guards the suggestion rng only. The info-gain Suggest still
	// never touches a component lock — tie-breaking draws are the one
	// bit of shared state reads need. It is always the last lock taken.
	sugMu sync.Mutex
	// sugRng is the suggestion stream, seeded on its first draw
	// (suggestionRng), so a reopened tenant that never breaks a tie
	// never pays for seeding a source.
	sugRng *rand.Rand

	workers int
}

// Concurrent wraps the session for concurrent serving. The wrapper
// takes ownership: after the call, use only the ConcurrentSession —
// calling methods on the underlying Session concurrently with the
// wrapper is the unsynchronized access the wrapper exists to prevent.
func (s *Session) Concurrent() *ConcurrentSession {
	n := s.pmn.NumComponents()
	cs := &ConcurrentSession{
		s:       s,
		pmn:     s.pmn,
		locks:   make([]sync.Mutex, n),
		snaps:   make([]atomic.Pointer[core.ComponentSnapshot], n),
		dirty:   make([]atomic.Bool, n),
		workers: s.workers,
	}
	// Publish nothing up front: every component starts dirty, and the
	// first reader that needs it publishes it (the first Suggest then
	// ranks on demand, its entropy-ordered skip rule pruning most
	// components without ever ranking them).
	for k := range cs.dirty {
		cs.dirty[k].Store(true)
	}
	return cs
}

// NewConcurrentSession builds a session for the network's candidate
// correspondences and wraps it for concurrent serving in one step.
func NewConcurrentSession(net *Network, opts *Options) (*ConcurrentSession, error) {
	s, err := NewSession(net, opts)
	if err != nil {
		return nil, err
	}
	return s.Concurrent(), nil
}

// Network returns the session's network (see Session.Network: it must
// not be mutated, and the first topology op replaces it with a copy of
// its own). Topology mutators grow the session's own copy in place, so
// hold any returned sub-structures only briefly.
func (cs *ConcurrentSession) Network() *Network {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	return cs.pmn.Network()
}

// Components returns how many constraint-connected components the
// network decomposes into — the session's maximal write parallelism.
func (cs *ConcurrentSession) Components() int {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	return cs.pmn.NumComponents()
}

// ComponentOf returns the component candidate c belongs to under the
// current topology (mutators can merge or split components). It returns
// ErrUnknownCandidate (wrapped) for an out-of-universe c.
func (cs *ConcurrentSession) ComponentOf(c int) (int, error) {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	return cs.s.ComponentOf(c)
}

// InferenceOf reports how component k is served at its current
// feedback (see Session.InferenceOf). Under "auto" the answer is a
// budgeted enumeration over the component's feedback and engine fork,
// which its maintenance writes, so the call briefly takes the
// component's lock.
func (cs *ConcurrentSession) InferenceOf(k int) (InferenceMode, error) {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	if k < 0 || k >= cs.pmn.NumComponents() {
		return 0, fmt.Errorf("schemanet: component index %d outside [0,%d)", k, cs.pmn.NumComponents())
	}
	cs.locks[k].Lock()
	defer cs.locks[k].Unlock()
	return cs.pmn.ComponentInference(k), nil
}

// Describe renders candidate c with its schemas, attributes, and
// matcher confidence; a placeholder for an out-of-universe c, as on
// Session.
func (cs *ConcurrentSession) Describe(c int) string {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	return cs.s.Describe(c)
}

// Violations returns the number of distinct constraint violations among
// the raw candidate correspondences (live only: retired candidates sit
// on no violation).
func (cs *ConcurrentSession) Violations() int {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	return cs.s.engine.ViolationCount(cs.s.engine.FullInstance())
}

// Probability returns the current probability of candidate c from the
// owning component's published snapshot. The common path is lock-free;
// when coalesced assertions have left the component's publication
// behind (see dirty), the read republishes once under the component's
// lock first, so completed assertions are always visible. It returns
// ErrUnknownCandidate (wrapped) for an out-of-universe c.
func (cs *ConcurrentSession) Probability(c int) (float64, error) {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	if err := cs.s.checkCandidate(c); err != nil {
		return 0, err
	}
	snap := cs.loadFresh(cs.pmn.ComponentOf(c))
	return snap.ProbabilityAt(cs.pmn.LocalIndex(c)), nil
}

// Uncertainty returns the network uncertainty H(C, P) (Equation 3) as
// the sum of the published per-component entropy terms, republishing
// any component whose publication was deferred by coalescing. Each
// term is internally consistent; the sum reflects each component's
// most recently published state rather than one global instant.
func (cs *ConcurrentSession) Uncertainty() float64 {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	h := 0.0
	for k := range cs.snaps {
		h += cs.loadFresh(k).Entropy()
	}
	return h
}

// loadFresh returns component k's published snapshot, first
// republishing it if coalesced assertions marked it dirty.
func (cs *ConcurrentSession) loadFresh(k int) *core.ComponentSnapshot {
	if cs.dirty[k].Load() {
		return cs.refreshComponent(k)
	}
	return cs.snaps[k].Load()
}

// refreshComponent publishes a fresh probs-only snapshot of component
// k under its lock, clearing the dirty flag. Double-checked: a racing
// refresh may already have republished, in which case the current
// snapshot is returned as is.
func (cs *ConcurrentSession) refreshComponent(k int) *core.ComponentSnapshot {
	cs.locks[k].Lock()
	defer cs.locks[k].Unlock()
	if !cs.dirty[k].Load() {
		return cs.snaps[k].Load()
	}
	snap := cs.pmn.SnapshotComponentProbs(k)
	cs.snaps[k].Store(snap)
	cs.dirty[k].Store(false)
	return snap
}

// Suggest returns the candidate whose assertion is expected to reduce
// network uncertainty the most, merging the per-component maximal-gain
// tie sets from the published snapshots without taking any component's
// write lock. Ties are broken uniformly at random, as in the serial
// strategy; once no uncertain candidate remains anywhere it degrades to
// random among the unasserted rest. ok is false when every candidate
// has been asserted. A session built with any other Options.Strategy
// asks that strategy instead, which reads the whole network, so it
// briefly takes exclusive access as Instantiate does.
func (cs *ConcurrentSession) Suggest() (c int, ok bool) {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	if _, infoGain := cs.s.strategy.(core.InfoGainStrategy); !infoGain {
		cs.lockAll()
		defer cs.unlockAll()
		cs.sugMu.Lock()
		defer cs.sugMu.Unlock()
		return cs.s.strategy.Next(cs.pmn, cs.suggestionRng())
	}
	best := -1.0
	nUnasserted := 0
	snaps := make([]*core.ComponentSnapshot, len(cs.snaps))
	var pending []int
	for k := range cs.snaps {
		snap := cs.loadFresh(k)
		snaps[k] = snap
		nUnasserted += len(snap.Unasserted())
		if !snap.Ranked() {
			pending = append(pending, k)
			continue
		}
		if compBest, g := snap.Best(); len(compBest) > 0 && g > best {
			best = g
		}
	}
	// Rank the unranked components highest-entropy-term first: H_k is an
	// upper bound on any member's gain, so once the running best exceeds
	// a component's entropy term (strictly, beyond the fp margin) the
	// component cannot contribute a maximum or a tie and is skipped
	// without any ranking work — left unranked for a later Suggest to
	// revisit if the bar ever drops.
	sort.Slice(pending, func(a, b int) bool {
		ea, eb := snaps[pending[a]].Entropy(), snaps[pending[b]].Entropy()
		if ea != eb {
			return ea > eb
		}
		return pending[a] < pending[b]
	})
	for _, k := range pending {
		if snaps[k].Entropy() < best-core.PruneMargin(best) {
			continue
		}
		snap := cs.rankComponent(k)
		snaps[k] = snap
		if compBest, g := snap.Best(); len(compBest) > 0 && g > best {
			best = g
		}
	}
	if best >= 0 {
		// Merge the tie sets in ascending component order — the same
		// concatenation ranking every component would produce, so the
		// tie-break draw lands on the same candidate for the same rng
		// state. Components skipped above cannot hold a tie: every member
		// gain is bounded by the entropy term the skip compared.
		var ties []int
		for _, snap := range snaps {
			if snap.Ranked() {
				if compBest, g := snap.Best(); g == best {
					ties = append(ties, compBest...)
				}
			}
		}
		return ties[cs.intn(len(ties))], true
	}
	if nUnasserted == 0 {
		return 0, false
	}
	// Fallback: uniform over the union of the per-component unasserted
	// pools (every remaining candidate is certain; asserting any of
	// them changes nothing, matching the serial fallback).
	i := cs.intn(nUnasserted)
	for _, snap := range snaps {
		u := snap.Unasserted()
		if i < len(u) {
			return u[i], true
		}
		i -= len(u)
	}
	// Unreachable: i < nUnasserted by construction.
	return 0, false
}

// rankComponent upgrades component k's published snapshot to a ranked
// one under the component's lock, through the lazy bound-pruned top-k
// evaluator (SnapshotComponentTop). Double-checked — a concurrent Suggest or a
// write that raced us may have published a current ranked snapshot
// first, in which case the re-rank is already paid and the snapshot is
// returned as is. A set dirty flag defeats the short-circuit: it means
// assertions landed after that publication, or that there was none.
func (cs *ConcurrentSession) rankComponent(k int) *core.ComponentSnapshot {
	cs.locks[k].Lock()
	defer cs.locks[k].Unlock()
	if !cs.dirty[k].Load() {
		if snap := cs.snaps[k].Load(); snap.Ranked() {
			return snap
		}
	}
	snap := cs.pmn.SnapshotComponentTop(k)
	cs.snaps[k].Store(snap)
	cs.dirty[k].Store(false)
	return snap
}

// intn draws from the suggestion rng under its own tiny lock.
func (cs *ConcurrentSession) intn(n int) int {
	cs.sugMu.Lock()
	defer cs.sugMu.Unlock()
	return cs.suggestionRng().Intn(n)
}

// suggestionRng returns the suggestion rng, seeding it on first use.
// The stream is deliberately distinct from the session rng, which
// serial suggestions and Instantiate draw from, so concurrent
// tie-breaks never race with those draws. Sampling draws neither: every
// component walks on its own re-seeded rng. The caller holds sugMu.
func (cs *ConcurrentSession) suggestionRng() *rand.Rand {
	if cs.sugRng == nil {
		cs.sugRng = rand.New(rand.NewSource(cs.s.seed ^ 0x5eed5a17))
	}
	return cs.sugRng
}

// Assert integrates an expert statement about candidate c: the global
// feedback record is serialized under a short lock, the expensive view
// maintenance and resampling run under the owning component's lock
// only, and publication is coalesced — the component is marked dirty
// and the next reader that touches it publishes one snapshot for the
// whole burst of assertions (gain re-ranking is deferred further
// still, to the next Suggest; see rankComponent). Assertions touching
// different components proceed in parallel. It returns
// ErrUnknownCandidate (wrapped) for an out-of-universe c and an error
// when c was already asserted (no state changes).
func (cs *ConcurrentSession) Assert(c int, correct bool) error {
	return cs.assertAs("", c, correct)
}

// assertAs is Assert with the annotator its log record carries.
func (cs *ConcurrentSession) assertAs(annotator string, c int, correct bool) error {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	if err := cs.s.checkCandidate(c); err != nil {
		return err
	}
	k := cs.pmn.ComponentOf(c)
	cs.locks[k].Lock()
	defer cs.locks[k].Unlock()
	rec := cs.s.assertRecord(annotator, c, correct)
	cs.feedMu.Lock()
	err := cs.pmn.RecordAssertion(c, correct)
	if err == nil {
		cs.s.logOps(rec)
	}
	cs.feedMu.Unlock()
	if err != nil {
		return err
	}
	cs.pmn.ApplyAssertions(k, []Assertion{{Cand: c, Approved: correct}})
	// Coalesced publication: mark the component dirty instead of
	// building a snapshot here — the next reader that touches it
	// republishes once for the whole burst of assertions.
	cs.dirty[k].Store(true)
	return nil
}

// AssertBatch integrates many assertions at once — the asynchronous
// arrival pattern of a crowd of experts. The batch is validated and
// recorded atomically (a duplicate, already-asserted, or
// out-of-universe candidate rejects the whole batch with no state
// change), then grouped by component and fanned out across a bounded
// worker pool: each touched component is view-maintained in batch
// order, refilled at most once, and republished (probs-only; ranking
// deferred) under its own lock. Components never wait for each other;
// per-component rng streams keep the result identical to applying the
// same batch serially.
func (cs *ConcurrentSession) AssertBatch(assertions []Assertion) error {
	return cs.assertBatchAs("", assertions)
}

// assertBatchAs is AssertBatch with the annotator its log records carry.
func (cs *ConcurrentSession) assertBatchAs(annotator string, assertions []Assertion) error {
	if len(assertions) == 0 {
		return nil
	}
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	for i, a := range assertions {
		if err := cs.s.checkCandidate(a.Cand); err != nil {
			return fmt.Errorf("assertion %d: %w", i, err)
		}
	}
	cs.batchMu.RLock()
	defer cs.batchMu.RUnlock()
	cs.feedMu.Lock()
	if err := cs.pmn.ValidateBatch(assertions); err != nil {
		cs.feedMu.Unlock()
		return err
	}
	for _, a := range assertions {
		if err := cs.pmn.RecordAssertion(a.Cand, a.Approved); err != nil {
			// Unreachable after validation; surface loudly if it happens.
			panic(err)
		}
		cs.s.logOps(cs.s.assertRecord(annotator, a.Cand, a.Approved))
	}
	cs.feedMu.Unlock()

	groups := cs.pmn.GroupByComponent(assertions)
	comps := make([]int, 0, len(groups))
	for k := range groups {
		comps = append(comps, k)
	}
	sort.Ints(comps)
	workers := cs.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(comps) {
		workers = len(comps)
	}
	if workers <= 1 {
		for _, k := range comps {
			cs.applyGroup(k, groups[k])
		}
		return nil
	}
	next := int64(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(comps) {
					return
				}
				k := comps[i]
				cs.applyGroup(k, groups[k])
			}
		}()
	}
	wg.Wait()
	return nil
}

// applyGroup runs one component's share of a batch under its lock and
// publishes the fresh probs-only snapshot — one publication per
// touched component per batch, however large the group (ranking is
// deferred to the next Suggest; see rankComponent). The store precedes
// the dirty clear so readers that observe the clear also observe the
// snapshot.
func (cs *ConcurrentSession) applyGroup(k int, as []Assertion) {
	cs.locks[k].Lock()
	defer cs.locks[k].Unlock()
	cs.pmn.ApplyAssertions(k, as)
	cs.snaps[k].Store(cs.pmn.SnapshotComponentProbs(k))
	cs.dirty[k].Store(false)
}

// Effort returns the fraction of candidates asserted so far.
func (cs *ConcurrentSession) Effort() float64 {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	cs.feedMu.Lock()
	defer cs.feedMu.Unlock()
	return cs.pmn.Feedback().Effort()
}

// lockAll acquires the batch exclusion, every component lock in
// ascending order, and the feedback lock — exclusive access for the
// whole-network operations, with no in-flight batch half-applied.
func (cs *ConcurrentSession) lockAll() {
	cs.batchMu.Lock()
	for k := range cs.locks {
		cs.locks[k].Lock()
	}
	cs.feedMu.Lock()
}

func (cs *ConcurrentSession) unlockAll() {
	cs.feedMu.Unlock()
	for k := range cs.locks {
		cs.locks[k].Unlock()
	}
	cs.batchMu.Unlock()
}

// AddSchema registers a new schema on the live concurrent session (see
// Session.AddSchema). The mutation takes the topology write lock —
// total exclusion against every reader and writer — and rebuilds the
// per-component lock and snapshot tables before readers resume.
func (cs *ConcurrentSession) AddSchema(name string, attrs ...string) error {
	cs.topoMu.Lock()
	defer cs.topoMu.Unlock()
	carried, err := cs.s.addSchema(name, attrs)
	if err != nil {
		return err
	}
	cs.rebuildTables(carried)
	return nil
}

// AddCandidates appends candidate correspondences to the live
// concurrent session (see Session.AddCandidates). Components bridged by
// a new candidate merge; the merged components are republished by
// their next reader while every untouched component keeps its published
// snapshot — readers of other components observe no change at all.
func (cs *ConcurrentSession) AddCandidates(correspondences []Correspondence) error {
	cs.topoMu.Lock()
	defer cs.topoMu.Unlock()
	carried, err := cs.s.addCandidates(correspondences)
	if err != nil {
		return err
	}
	cs.rebuildTables(carried)
	return nil
}

// RetireCandidate withdraws candidate c from the live concurrent
// session (see Session.RetireCandidate). Only the split parts of the
// retiree's component are republished (by their next reader); every
// other component keeps its published snapshot.
func (cs *ConcurrentSession) RetireCandidate(c int) error {
	cs.topoMu.Lock()
	defer cs.topoMu.Unlock()
	carried, err := cs.s.retireCandidate(c)
	if err != nil {
		return err
	}
	cs.rebuildTables(carried)
	return nil
}

// rebuildTables re-sizes the per-component lock and snapshot tables
// after a topology mutation, under the topology write lock (no reader
// or writer is in flight). Components carried verbatim by the
// underlying relayout keep their published snapshot pointer — members,
// probabilities, entropy, and ranking are all unchanged, including the
// Ranked flag, so a previously ranked component stays ranked. Rebuilt
// components start dirty, like every component of a fresh wrapper: the
// next reader publishes them, and ranking is deferred to the next
// Suggest as everywhere else.
func (cs *ConcurrentSession) rebuildTables(carried map[int]int) {
	nk := cs.pmn.NumComponents()
	old := cs.snaps
	snaps := make([]atomic.Pointer[core.ComponentSnapshot], nk)
	dirty := make([]atomic.Bool, nk)
	for k := 0; k < nk; k++ {
		if k0, ok := carried[k]; ok {
			// Carried components keep both the published snapshot and any
			// pending coalesced-publication debt.
			snaps[k].Store(old[k0].Load())
			dirty[k].Store(cs.dirty[k0].Load())
		} else {
			dirty[k].Store(true)
		}
	}
	cs.locks = make([]sync.Mutex, nk)
	cs.snaps = snaps
	cs.dirty = dirty
}

// Instantiate derives a trusted matching from the current state (§V,
// Algorithm 2). The local search reads every component's samples and
// the full feedback, so it briefly takes exclusive access — assertions
// issued meanwhile block until it finishes.
func (cs *ConcurrentSession) Instantiate() *Matching {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	cs.lockAll()
	defer cs.unlockAll()
	return cs.s.Instantiate()
}

// Save writes the session's feedback so reconciliation can resume later
// (see LoadSession); concurrent assertions are excluded from the saved
// history, not torn.
func (cs *ConcurrentSession) Save(w io.Writer) error {
	cs.topoMu.RLock()
	defer cs.topoMu.RUnlock()
	cs.lockAll()
	defer cs.unlockAll()
	return cs.s.Save(w)
}
