package core

import (
	"errors"
	"strconv"

	"schemanet/internal/bitset"
)

// Dynamic-network support: TopologyChanged relays the PMN's component
// layout after the engine's compiled constraint index grew (schema or
// candidate arrival) or retired a candidate. Components whose member
// list is unchanged are carried — pieces, stores, cached entropy and
// tie sets survive in place — while touched components (merged by a
// bridging candidate, split or emptied by a retire) are rebuilt under
// the accumulated feedback with fresh pieces.

// ErrCandidateRetired reports an assertion against a candidate that was
// withdrawn through Session.RetireCandidate. Retired candidates keep
// their index (the network tombstones them) but have probability 0 and
// accept no feedback.
var ErrCandidateRetired = errors.New("candidate retired")

// SetTopoSeed fixes the seed that derives sampler streams for
// components rebuilt by topology changes. The serving layer passes the
// session seed so live mutation and durable replay agree bit-for-bit.
func (p *PMN) SetTopoSeed(seed int64) { p.topoSeed = seed }

// contentSeed derives a rebuilt component's rng seed from the topology
// generation and the member list (FNV-1a). Purely content-addressed:
// any path that reaches the same network by the same op sequence
// rebuilds the same component with the same stream.
func (p *PMN) contentSeed(members []int) int64 {
	h := fnvMix(fnvMix(fnvOffset, uint64(p.topoSeed)), p.topoGen)
	for _, m := range members {
		h = fnvMix(h, uint64(m))
	}
	return int64(h)
}

// fnvOffset is the FNV-1a 64-bit offset basis.
const fnvOffset = 14695981039346656037

// fnvMix folds the eight bytes of v into the FNV-1a state h.
func fnvMix(h, v uint64) uint64 {
	const prime64 = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime64
		v >>= 8
	}
	return h
}

// memberKey canonically names a component by its ascending member list;
// nil members (the whole-universe component) materialize over the given
// universe size so a trivial partition and an explicit full-universe
// component compare equal.
func memberKey(members []int, universe int) string {
	var b []byte
	if members == nil {
		for c := 0; c < universe; c++ {
			b = strconv.AppendInt(b, int64(c), 10)
			b = append(b, ',')
		}
		return string(b)
	}
	for _, c := range members {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
	}
	return string(b)
}

// TopologyChanged re-derives the component layout after the network and
// engine mutated: oldN is the candidate count before the change and
// retiredCand the candidate withdrawn by a retire (-1 for growth).
//
// Components whose member list is unchanged are carried in place (their
// stores widen to the new universe; pieces, probabilities, entropy, and
// the cached tie sets stay verbatim). Every other component is rebuilt
// under the accumulated feedback with a content-derived base seed: its
// pieces are computed afresh and filled from scratch. The component
// containing a retired candidate is always rebuilt, which is what
// drives its probability to 0 (retired candidates cannot join any
// instance).
//
// The returned map sends each carried new component index to its old
// index, so a serving layer can republish old snapshots for untouched
// components. An error (only possible under forced InferExact with a
// budget) leaves the PMN unusable; callers must discard the session.
//
// Callers must serialize TopologyChanged against ALL other PMN use,
// including reads.
func (p *PMN) TopologyChanged(oldN, retiredCand int) (map[int]int, error) {
	p.topoGen++
	n := p.engine.Network().NumCandidates()
	p.feedback.Grow(n)
	for len(p.probs) < n {
		p.probs = append(p.probs, 0)
		p.pieceOf = append(p.pieceOf, notLive)
		p.pieceCol = append(p.pieceCol, 0)
	}

	oldComps := p.comps
	oldByKey := make(map[string]int, len(oldComps))
	for k0, c := range oldComps {
		oldByKey[memberKey(c.members, oldN)] = k0
	}

	parts := p.engine.Components()
	nk := parts.NumComponents()
	newComps := make([]*component, nk)
	carried := make(map[int]int, nk)
	compOf := make([]int, n)
	localIdx := make([]int32, n)
	maxComp := 0
	for k := 0; k < nk; k++ {
		members := parts.Members(k)
		for j, c := range members {
			compOf[c] = k
			localIdx[c] = int32(j)
		}
		if len(members) > maxComp {
			maxComp = len(members)
		}
	}
	p.compOf, p.localIdx, p.maxComp = compOf, localIdx, maxComp

	var rebuilt []int
	for k := 0; k < nk; k++ {
		members := parts.Members(k)
		k0, ok := oldByKey[memberKey(members, oldN)]
		// A nil-members component spans the whole old universe and its
		// store has no explicit member set: it cannot widen when new
		// candidates arrive, so force a rebuild (which materializes the
		// member list) whenever the universe grows.
		if ok && oldComps[k0].members == nil && n > oldN {
			ok = false
		}
		if ok && (retiredCand < 0 || !memberOf(oldComps[k0], retiredCand, oldN)) {
			// Unchanged membership: carry the component, widening its
			// universe-sized state in place. Feedback masks, store
			// columns, probabilities, entropy, and the cached tie set are
			// all still valid; only the ranking scratch (sized to the old
			// maxComp) is dropped.
			c := oldComps[k0]
			c.approved.Grow(n)
			c.disapproved.Grow(n)
			if c.mask != nil {
				c.mask.Grow(n)
			}
			c.inf.Grow(n)
			c.topScratch = nil
			newComps[k] = c
			carried[k] = k0
			continue
		}
		c := newComponent(p.engine, n)
		c.members = members
		c.mask = bitset.FromIndices(n, members...)
		for _, m := range members {
			if p.feedback.IsApproved(m) {
				c.approved.Add(m)
			} else if p.feedback.IsDisapproved(m) {
				c.disapproved.Add(m)
			}
		}
		inf, err := p.newPieceInference(k, c, stream{seed: p.contentSeed(members)})
		if err != nil {
			return nil, err
		}
		c.inf = inf
		newComps[k] = c
		rebuilt = append(rebuilt, k)
	}
	p.comps = newComps

	for _, k := range rebuilt {
		p.emissions.Add(int64(p.comps[k].inf.Refill()))
		p.recomputeComp(k)
	}
	return carried, nil
}

// memberOf reports whether candidate c belongs to old component cp
// (nil members = the whole old universe).
func memberOf(cp *component, c, universe int) bool {
	if cp.members == nil {
		return c < universe
	}
	return cp.mask.Has(c)
}
