package core

import (
	"errors"
	"strconv"

	"schemanet/internal/constraints"
)

// Dynamic-network support: TopologyChanged relays the PMN's component
// layout after the PMN adopted an engine compiled for a grown network
// (schema or candidate arrival) or for one with a retired candidate.
// Components whose member list is unchanged are carried — pieces, stores, cached entropy and
// tie sets survive in place — while touched components (merged by a
// bridging candidate, split or emptied by a retire) are rebuilt under
// the accumulated feedback with fresh pieces.

// ErrCandidateRetired reports an assertion against a candidate that was
// withdrawn through Session.RetireCandidate. Retired candidates keep
// their index (the network tombstones them) but have probability 0 and
// accept no feedback.
var ErrCandidateRetired = errors.New("candidate retired")

// AdoptEngine re-points the PMN's engine and every component's fork at
// e's compiled material (constraints.Engine.Adopt). A serving layer
// calls it after a topology op changed the network, with e compiled for
// the changed network, and then calls TopologyChanged to relay the
// component layout; e may describe a grown universe. A Whole engine
// stays whole. Callers must serialize AdoptEngine against ALL other PMN
// use, including reads.
func (p *PMN) AdoptEngine(e *constraints.Engine) {
	p.engine.Adopt(e)
	for _, c := range p.comps {
		c.engine.Adopt(p.engine)
	}
}

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

// memberKey canonically names a component by its ascending member list.
func memberKey(members []int) string {
	var b []byte
	for _, c := range members {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
	}
	return string(b)
}

// TopologyChanged re-derives the component layout after the network
// changed and the PMN adopted an engine compiled for it (AdoptEngine):
// retiredCand is the candidate withdrawn by a retire (-1 for growth).
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
func (p *PMN) TopologyChanged(retiredCand int) (map[int]int, error) {
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
		oldByKey[memberKey(c.members)] = k0
	}

	parts := p.engine.Components()
	p.layout(parts)
	p.comps = make([]*component, parts.NumComponents())
	carried := make(map[int]int, len(p.comps))
	var rebuilt []int
	for k := range p.comps {
		members := parts.Members(k)
		if k0, ok := oldByKey[memberKey(members)]; ok && (retiredCand < 0 || !oldComps[k0].mask.Has(retiredCand)) {
			// Unchanged membership: carry the component, widening its
			// universe-sized state in place. Feedback masks, store
			// columns, probabilities, entropy, and the cached tie set are
			// all still valid; only the ranking scratch (sized to the old
			// maxComp) is dropped.
			oldComps[k0].grow(n)
			p.comps[k] = oldComps[k0]
			carried[k] = k0
			continue
		}
		c, err := p.newComponent(k, members, stream{seed: p.contentSeed(members)})
		if err != nil {
			return nil, err
		}
		p.comps[k] = c
		rebuilt = append(rebuilt, k)
	}
	for _, k := range rebuilt {
		p.emissions.Add(int64(p.comps[k].refill()))
		p.recomputeComp(k)
	}
	return carried, nil
}
