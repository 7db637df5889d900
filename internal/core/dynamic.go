package core

import (
	"errors"
	"strconv"

	"schemanet/internal/bitset"
	"schemanet/internal/sampling"
)

// Dynamic-network support: TopologyChanged relays the PMN's component
// layout after the engine's compiled constraint index grew (schema or
// candidate arrival) or retired a candidate. Components whose member
// list is unchanged are carried — store, sampler stream, cached entropy
// and gains survive in place — while touched components (merged by a
// bridging candidate, split or emptied by a retire) are rebuilt under
// the accumulated feedback, seeded from their predecessors' surviving
// samples where possible.

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
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(p.topoSeed))
	mix(p.topoGen)
	for _, m := range members {
		mix(uint64(m))
	}
	return int64(h)
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
// stores widen to the new universe; probabilities, entropy, and cached
// gains stay verbatim). Every other component is rebuilt under the
// accumulated feedback with a content-derived sampler stream; rebuilt
// sampled components are first seeded with the consistent union of
// their predecessors' surviving samples, so the following refill only
// pays for the n_min deficit. The component containing a retired
// candidate is always rebuilt, which is what drives its probability
// to 0 (retired candidates cannot join any instance).
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
	}
	for len(p.gains) < n {
		p.gains = append(p.gains, 0)
	}

	oldComps := p.comps
	oldStale := p.gainsStale
	oldByKey := make(map[string]int, len(oldComps))
	for k0, c := range oldComps {
		oldByKey[memberKey(c.members, oldN)] = k0
	}

	parts := p.engine.Components()
	nk := parts.NumComponents()
	newComps := make([]*component, nk)
	newStale := make([]bool, nk)
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
			// columns, probabilities, entropy, and cached gains are all
			// still valid; only the ranking scratch (sized to the old
			// maxComp) is dropped.
			c := oldComps[k0]
			c.approved.Grow(n)
			c.disapproved.Grow(n)
			var local []int32
			if c.mask != nil {
				c.mask.Grow(n)
				local = localIdx
			}
			c.inf.Grow(n, local)
			c.rankScratch = nil
			c.topScratch = nil
			newComps[k] = c
			newStale[k] = oldStale[k0]
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
		scfg := p.cfg.Sampler
		if scfg.StagnationLimit == 0 {
			scfg.StagnationLimit = 8*len(members) + 128
		}
		inf, err := p.newInference(k, c, scfg, stream{seed: p.contentSeed(members)})
		if err != nil {
			return nil, err
		}
		c.inf = inf
		newComps[k] = c
		rebuilt = append(rebuilt, k)
	}
	p.comps = newComps
	p.gainsStale = newStale

	carriedOld := make(map[int]bool, len(carried))
	//lint:sorted builds a membership set; insertion order cannot affect it
	for _, k0 := range carried {
		carriedOld[k0] = true
	}
	for _, k := range rebuilt {
		c := p.comps[k]
		if c.inf.Mode() == InferSampled {
			p.seedSurvivors(c, oldComps, carriedOld, oldN)
		}
		p.emissions.Add(int64(c.inf.Refill()))
		p.recomputeComp(k)
		if c.rankScratch != nil {
			c.rankScratch = nil
		}
	}
	// Carried components keep scratch-free state too: the ranking
	// scratch is sized to maxComp and the global assertion mask, both of
	// which may have changed.
	for _, c := range p.comps {
		c.rankScratch = nil
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

// seedSurvivors seeds a rebuilt sampled component's empty store with
// instances derived from its predecessors' surviving samples: each
// round unions one projected instance from every overlapping retired-
// from-service old component, re-validates consistency member by member
// (projections of consistent instances are consistent, and on growth
// old candidates never acquire new conflicts among themselves — the
// check is a cheap guard, not a correctness crutch), completes the
// union to maximality deterministically, and adds it. The following
// Refill then only pays for the n_min deficit (survivor-reuse chunk).
func (p *PMN) seedSurvivors(c *component, oldComps []*component, carriedOld map[int]bool, oldN int) {
	n := len(p.probs)
	var pools [][]*bitset.Set
	for k0, o := range oldComps {
		if carriedOld[k0] {
			continue
		}
		overlap := false
		if o.members == nil {
			overlap = true
		} else {
			for _, m := range o.members {
				if c.mask.Has(m) {
					overlap = true
					break
				}
			}
		}
		if !overlap {
			continue
		}
		var insts []*bitset.Set
		o.store().ForEachInstance(func(inst *bitset.Set) bool {
			proj := inst.Clone()
			proj.Grow(n)
			proj.IntersectWith(c.mask)
			insts = append(insts, proj)
			return true
		})
		if len(insts) > 0 {
			pools = append(pools, insts)
		}
	}
	if len(pools) == 0 {
		return
	}
	st := c.store()
	rounds := st.NMin()
	maxPool := 0
	for _, pool := range pools {
		if len(pool) > maxPool {
			maxPool = len(pool)
		}
	}
	if rounds > maxPool {
		rounds = maxPool
	}
	eng := c.engine
	_, excl := sampling.FeedbackWithin(n, nil, c.disapproved, c.mask, nil, nil)
	for i := 0; i < rounds; i++ {
		inst := eng.NewInstance()
		// Approved members first: every stored instance must contain
		// F+ ∩ members (they are mutually consistent by assertion-time
		// validation).
		inst.UnionWith(c.approved)
		for _, pool := range pools {
			pool[i%len(pool)].ForEach(func(d int) bool {
				if !inst.Has(d) && !eng.HasConflict(inst, d) {
					inst.Add(d)
				}
				return true
			})
		}
		eng.MaximizeWithin(inst, excl, c.members, nil)
		st.Add(inst)
	}
}
