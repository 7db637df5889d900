package constraints

import (
	"schemanet/internal/bitset"
	"schemanet/internal/graphs"
	"schemanet/internal/schema"
)

// KindCycle names the cycle constraint.
const KindCycle = "cycle"

// Cycle implements the cycle constraint of §II-A: if multiple schemas are
// matched in a cycle, the matched attributes should form a closed cycle.
//
// A violation is a chain of correspondences that covers every edge of a
// schema cycle exactly once and is attribute-connected at every schema
// except exactly one (the "break"), where the two incident
// correspondences touch different attributes. Following the chain from
// the break therefore leads around the cycle and back to a *different*
// attribute of the same schema — the paper's {c2, c1, c5} example.
//
// Schema cycles are enumerated up to MaxLen (default 3, i.e. triangles);
// see DESIGN.md for the rationale of this bound. Each cycle rotation is
// compiled once into a rotationPlan — target schema sequences and edge
// candidate masks — so the hot existence check (HasConflict) runs a
// closure-free DFS with zero allocations; see DESIGN.md, "Compiled
// conflict index".
type Cycle struct {
	net    *schema.Network
	maxLen int
	cycles []graphs.Cycle
	// canonical[i] is the plan of cycles[i] rotated to start at its
	// canonical first edge (used by Violations to report each chain once).
	canonical []*rotationPlan
	// byEdge maps a schema-pair key to the plans of all cycles that
	// traverse that pair, each rotated so the pair is (seq[0], seq[1]).
	byEdge map[[2]int][]*rotationPlan
	// byPair maps a schema-pair key to the candidate indices on it.
	byPair map[[2]int][]int
	// pairMask is byPair as a bitset, shared across the plans whose
	// rotations traverse the pair.
	pairMask map[[2]int]*bitset.Set
	// plansByCand caches byEdge per candidate (shared slices), sparing
	// the hot path a map lookup per probe.
	plansByCand [][]*rotationPlan
	// attrTo[a*numSchemas+s] lists the candidates at attribute a whose
	// other endpoint lies in schema s, that endpoint cached alongside.
	// The walk's inner loop iterates exactly the candidates that can
	// extend the chain, instead of filtering CandidatesOf by schema.
	attrTo     [][]hop
	numSchemas int
}

// hop is one candidate leaving an attribute toward a known schema.
type hop struct {
	cand  int
	other schema.AttrID
}

// rotationPlan precompiles one rotation of one schema cycle: everything
// chainsThrough used to rebuild per call.
type rotationPlan struct {
	seq []int
	// full is the m = 0 target sequence seq[2..k-1], seq[0]: the break
	// sits at seq[0] and the walk goes all the way around.
	full []int
	// segs[m-1] holds the forward targets seq[2..m] and backward targets
	// seq[k-1..m] for break positions m = 1..k-1.
	segs [][2][]int
	// otherEdges[i] masks the candidates on the rotation's non-first
	// edges; a chain exists only if every mask intersects the instance.
	otherEdges []*bitset.Set
}

// DefaultMaxCycleLen bounds the schema-cycle enumeration of NewCycle.
const DefaultMaxCycleLen = 3

// NewCycle binds the cycle constraint to a network, enumerating the
// interaction graph's simple cycles up to maxLen (use
// DefaultMaxCycleLen for the paper's setting). maxLen below 3 yields a
// constraint that never fires.
func NewCycle(net *schema.Network, maxLen int) *Cycle {
	cc := &Cycle{net: net, maxLen: maxLen}
	cc.buildIndex()
	return cc
}

// buildIndex derives the whole compiled chain index — schema cycles,
// rotation plans, pair masks, hop lists — from the network. The
// enumeration is over the *schema* interaction graph plus one pass over
// the candidates. Retired candidates are excluded from the masks and hop
// lists, so no chain can ever route through them.
func (cc *Cycle) buildIndex() {
	net := cc.net
	cc.cycles = net.Interaction().SimpleCycles(cc.maxLen)
	cc.byEdge = make(map[[2]int][]*rotationPlan)
	cc.byPair = make(map[[2]int][]int)
	cc.pairMask = make(map[[2]int]*bitset.Set)
	n := net.NumCandidates()
	cc.numSchemas = net.NumSchemas()
	cc.attrTo = make([][]hop, net.NumAttributes()*cc.numSchemas)
	for i := 0; i < n; i++ {
		if net.Retired(i) {
			continue
		}
		sa, sb := net.SchemaPair(i)
		key := pairKey(int(sa), int(sb))
		cc.byPair[key] = append(cc.byPair[key], i)
		if cc.pairMask[key] == nil {
			cc.pairMask[key] = bitset.New(n)
		}
		cc.pairMask[key].Add(i)
		cand := net.Candidate(i)
		ia, ib := int(cand.A)*cc.numSchemas+int(sb), int(cand.B)*cc.numSchemas+int(sa)
		cc.attrTo[ia] = append(cc.attrTo[ia], hop{cand: i, other: cand.B})
		cc.attrTo[ib] = append(cc.attrTo[ib], hop{cand: i, other: cand.A})
	}
	// Candidate-less pairs get a real (empty) mask registered in pairMask
	// rather than one shared sentinel: the masks are aliased into the
	// plans' otherEdges, so materializing them per pair keeps each plan's
	// view independent.
	maskOf := func(u, v int) *bitset.Set {
		key := pairKey(u, v)
		if cc.pairMask[key] == nil {
			cc.pairMask[key] = bitset.New(n)
		}
		return cc.pairMask[key]
	}
	for _, cyc := range cc.cycles {
		k := len(cyc)
		for i := 0; i < k; i++ {
			rot := make([]int, 0, k)
			for j := 0; j < k; j++ {
				rot = append(rot, cyc[(i+j)%k])
			}
			p := &rotationPlan{seq: rot}
			p.full = append(append(make([]int, 0, k-1), rot[2:]...), rot[0])
			p.segs = make([][2][]int, 0, k-1)
			for m := 1; m < k; m++ {
				fwd := make([]int, 0, m-1)
				for j := 2; j <= m; j++ {
					fwd = append(fwd, rot[j])
				}
				bwd := make([]int, 0, k-m)
				for j := k - 1; j >= m; j-- {
					bwd = append(bwd, rot[j])
				}
				p.segs = append(p.segs, [2][]int{fwd, bwd})
			}
			p.otherEdges = make([]*bitset.Set, 0, k-1)
			for j := 1; j < k; j++ {
				p.otherEdges = append(p.otherEdges, maskOf(rot[j], rot[(j+1)%k]))
			}
			cc.byEdge[pairKey(rot[0], rot[1])] = append(cc.byEdge[pairKey(rot[0], rot[1])], p)
			if i == 0 {
				cc.canonical = append(cc.canonical, p)
			}
		}
	}
	cc.plansByCand = make([][]*rotationPlan, n)
	for i := 0; i < n; i++ {
		if net.Retired(i) {
			continue
		}
		sa, sb := net.SchemaPair(i)
		cc.plansByCand[i] = cc.byEdge[pairKey(int(sa), int(sb))]
	}
}

func pairKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// Name implements Constraint.
func (cc *Cycle) Name() string { return KindCycle }

// NumSchemaCycles returns how many schema cycles are checked.
func (cc *Cycle) NumSchemaCycles() int { return len(cc.cycles) }

// Compile implements Constraint. Cycle violations are chains, not pairs,
// so the constraint cannot emit a conflict matrix; instead it emits a
// per-candidate participation mask used as a word-wise early-out gate
// before the chain-walk DFS fires (see DESIGN.md, "Compiled conflict
// index"). GateMasks[c] is the set of candidates on the other edges of
// any schema cycle through c's schema pair — every violating chain
// through c consists of c plus one candidate per remaining cycle edge,
// all drawn from that mask. A chain over a k-cycle therefore needs k−1
// instance members inside the mask, so GateMin[c] is the shortest
// relevant cycle length minus one (≥2). Candidates on no schema cycle
// keep a nil mask: they can never violate.
func (cc *Cycle) Compile() Compiled {
	n := cc.net.NumCandidates()
	masks := make([]*bitset.Set, n)
	min := make([]int, n)
	// Masks and minima depend only on the schema pair; build one per
	// pair and share it across the pair's candidates.
	type pairGate struct {
		mask *bitset.Set
		min  int
	}
	gates := make(map[[2]int]pairGate)
	for c := 0; c < n; c++ {
		if cc.net.Retired(c) {
			continue // nil mask: a retired candidate can never violate
		}
		sa, sb := cc.net.SchemaPair(c)
		key := pairKey(int(sa), int(sb))
		g, ok := gates[key]
		if !ok {
			for _, p := range cc.byEdge[key] {
				k := len(p.seq)
				if g.mask == nil {
					g.mask = bitset.New(n)
				}
				if g.min == 0 || k-1 < g.min {
					g.min = k - 1
				}
				for _, m := range p.otherEdges {
					g.mask.UnionWith(m)
				}
			}
			gates[key] = g
		}
		masks[c] = g.mask
		min[c] = g.min
	}
	return Compiled{GateMasks: masks, GateMin: min}
}

// endpointIn returns the endpoint of candidate d lying in schema s.
func (cc *Cycle) endpointIn(d int, s int) schema.AttrID {
	c := cc.net.Candidate(d)
	if int(cc.net.SchemaOf(c.A)) == s {
		return c.A
	}
	return c.B
}

// plansFor returns the plans of rotations traversing c's schema pair.
func (cc *Cycle) plansFor(c int) []*rotationPlan { return cc.plansByCand[c] }

// edgesLive reports whether every non-first edge of the rotation has at
// least one instance member — a word-wise necessary condition for a
// chain, checked before any DFS.
func (p *rotationPlan) edgesLive(inst *bitset.Set) bool {
	for _, m := range p.otherEdges {
		if !inst.Intersects(m) {
			return false
		}
	}
	return true
}

// existsEndOther runs the connected-moves DFS from attr start through
// the target schema sequence and reports whether some terminal attribute
// differs from avoid. No paths are materialized: this is the existence
// core of HasConflict and allocates nothing.
func (cc *Cycle) existsEndOther(inst *bitset.Set, start schema.AttrID, targets []int, avoid schema.AttrID) bool {
	if len(targets) == 0 {
		return start != avoid
	}
	for _, h := range cc.attrTo[int(start)*cc.numSchemas+targets[0]] {
		if !inst.Has(h.cand) {
			continue
		}
		if cc.existsEndOther(inst, h.other, targets[1:], avoid) {
			return true
		}
	}
	return false
}

// forwardThenBackward walks forward from start through fwd; at each
// terminal attribute alpha it asks whether the backward walk from x0
// through bwd can end anywhere other than alpha — the break condition
// for break positions m ≥ 1.
func (cc *Cycle) forwardThenBackward(inst *bitset.Set, start schema.AttrID, fwd []int, x0 schema.AttrID, bwd []int) bool {
	if len(fwd) == 0 {
		return cc.existsEndOther(inst, x0, bwd, start)
	}
	for _, h := range cc.attrTo[int(start)*cc.numSchemas+fwd[0]] {
		if !inst.Has(h.cand) {
			continue
		}
		if cc.forwardThenBackward(inst, h.other, fwd[1:], x0, bwd) {
			return true
		}
	}
	return false
}

// hasChain reports whether some violating chain through c exists in
// rotation p (the existence counterpart of chainsThrough).
func (cc *Cycle) hasChain(inst *bitset.Set, c int, p *rotationPlan) bool {
	if len(p.seq) == 3 {
		return cc.hasChainTri(inst, c, p)
	}
	if !p.edgesLive(inst) {
		return false
	}
	x0 := cc.endpointIn(c, p.seq[0])
	x1 := cc.endpointIn(c, p.seq[1])
	if cc.existsEndOther(inst, x1, p.full, x0) {
		return true
	}
	for _, seg := range p.segs {
		if cc.forwardThenBackward(inst, x1, seg[0], x0, seg[1]) {
			return true
		}
	}
	return false
}

// hasChainTri is hasChain specialized to triangles (the default MaxLen):
// with seq = [s0, s1, s2] the three break positions share the two hop
// scans x1→s2 and x0→s2, so the whole check runs off those lists without
// the generic recursion or the edgesLive pre-pass (an empty hop list
// implies the corresponding edge check).
func (cc *Cycle) hasChainTri(inst *bitset.Set, c int, p *rotationPlan) bool {
	s0, s1, s2 := p.seq[0], p.seq[1], p.seq[2]
	cand := cc.net.Candidate(c)
	x0, x1 := cand.A, cand.B
	if int(cc.net.SchemaOf(cand.A)) != s0 {
		x0, x1 = cand.B, cand.A
	}
	hopsA := cc.attrTo[int(x1)*cc.numSchemas+s2] // forward: x1 → s2
	hopsB := cc.attrTo[int(x0)*cc.numSchemas+s2] // backward: x0 → s2
	// Direct word probes: this is the innermost loop of Maximize's
	// saturation pass, and the membership test is all it does.
	words := inst.Words()
	has := func(i int) bool { return words[i>>6]&(1<<uint(i&63)) != 0 }
	// Break at s0: a live forward hop, then a hop into s0 ending ≠ x0.
	for _, a := range hopsA {
		if !has(a.cand) {
			continue
		}
		for _, h := range cc.attrTo[int(a.other)*cc.numSchemas+s0] {
			if has(h.cand) && h.other != x0 {
				return true
			}
		}
	}
	// Break at s1: a live backward hop, then a hop into s1 ending ≠ x1.
	for _, b := range hopsB {
		if !has(b.cand) {
			continue
		}
		for _, h := range cc.attrTo[int(b.other)*cc.numSchemas+s1] {
			if has(h.cand) && h.other != x1 {
				return true
			}
		}
	}
	// Break at s2: live forward and backward hops ending on different
	// attributes of s2.
	for _, a := range hopsA {
		if !has(a.cand) {
			continue
		}
		for _, b := range hopsB {
			if has(b.cand) && b.other != a.other {
				return true
			}
		}
	}
	return false
}

// HasConflict implements Constraint.
func (cc *Cycle) HasConflict(inst *bitset.Set, c int) bool {
	for _, p := range cc.plansFor(c) {
		if cc.hasChain(inst, c, p) {
			return true
		}
	}
	return false
}

// walk runs a connected-moves DFS from attr start through the target
// schema sequence, calling emit with each terminal attribute and the
// candidate path taken. emit returning false aborts the walk (and walk
// then returns false). Only the enumeration paths (ConflictsWith,
// Violations) need the materialized paths; HasConflict uses the
// allocation-free existence walks above.
func (cc *Cycle) walk(inst *bitset.Set, start schema.AttrID, targets []int, path []int, emit func(end schema.AttrID, path []int) bool) bool {
	if len(targets) == 0 {
		return emit(start, path)
	}
	for _, h := range cc.attrTo[int(start)*cc.numSchemas+targets[0]] {
		if !inst.Has(h.cand) {
			continue
		}
		if !cc.walk(inst, h.other, targets[1:], append(path, h.cand), emit) {
			return false
		}
	}
	return true
}

// chainsThrough enumerates all violating chains through candidate c in
// rotation p (with c on the edge seq[0]-seq[1]), calling emit with the
// full candidate set of each chain. emit returning false aborts.
//
// For each possible break schema seq[m], the chain decomposes into a
// forward connected walk from c's seq[1]-endpoint to seq[m] and a
// backward connected walk from c's seq[0]-endpoint to seq[m] (going the
// other way around); the chain violates iff the two walks end on
// different attributes of seq[m].
func (cc *Cycle) chainsThrough(inst *bitset.Set, c int, p *rotationPlan, emit func(chain []int) bool) bool {
	x0 := cc.endpointIn(c, p.seq[0])
	x1 := cc.endpointIn(c, p.seq[1])

	// m = 0: break at seq[0]; forward walk goes all the way around.
	ok := cc.walk(inst, x1, p.full, nil, func(end schema.AttrID, path []int) bool {
		if end == x0 {
			return true
		}
		chain := append([]int{c}, path...)
		return emit(chain)
	})
	if !ok {
		return false
	}

	// 1 <= m <= k-1: forward to seq[m], backward to seq[m].
	for _, seg := range p.segs {
		bwdTargets := seg[1]
		ok := cc.walk(inst, x1, seg[0], nil, func(alpha schema.AttrID, fwdPath []int) bool {
			fwd := append([]int(nil), fwdPath...)
			return cc.walk(inst, x0, bwdTargets, nil, func(beta schema.AttrID, bwdPath []int) bool {
				if alpha == beta {
					return true
				}
				chain := make([]int, 0, 1+len(fwd)+len(bwdPath))
				chain = append(chain, c)
				chain = append(chain, fwd...)
				chain = append(chain, bwdPath...)
				return emit(chain)
			})
		})
		if !ok {
			return false
		}
	}
	return true
}

// chainWalker is the closure-free state of ForEachChain: the chain
// buffer grows and shrinks along the DFS, so streaming a chain allocates
// nothing once the scratch has warmed up.
type chainWalker struct {
	cc      *Cycle
	inst    *bitset.Set
	fn      func(chain []int) bool
	chain   []int
	x0      schema.AttrID
	aborted bool
}

// walkFull handles break position m = 0: DFS from start through
// targets; a terminal attribute other than x0 completes a chain.
func (w *chainWalker) walkFull(start schema.AttrID, targets []int) {
	if len(targets) == 0 {
		if start != w.x0 && !w.fn(w.chain) {
			w.aborted = true
		}
		return
	}
	for _, h := range w.cc.attrTo[int(start)*w.cc.numSchemas+targets[0]] {
		if !w.inst.Has(h.cand) {
			continue
		}
		w.chain = append(w.chain, h.cand)
		w.walkFull(h.other, targets[1:])
		w.chain = w.chain[:len(w.chain)-1]
		if w.aborted {
			return
		}
	}
}

// walkFwd handles break positions m ≥ 1: the forward DFS; exhausting
// fwd at attribute alpha hands over to the backward walk.
func (w *chainWalker) walkFwd(start schema.AttrID, fwd, bwd []int) {
	if len(fwd) == 0 {
		w.walkBwd(w.x0, bwd, start)
		return
	}
	for _, h := range w.cc.attrTo[int(start)*w.cc.numSchemas+fwd[0]] {
		if !w.inst.Has(h.cand) {
			continue
		}
		w.chain = append(w.chain, h.cand)
		w.walkFwd(h.other, fwd[1:], bwd)
		w.chain = w.chain[:len(w.chain)-1]
		if w.aborted {
			return
		}
	}
}

// walkBwd finishes a chain from the x0 side; a terminal attribute other
// than alpha (the forward end) is a break, completing the chain.
func (w *chainWalker) walkBwd(start schema.AttrID, bwd []int, alpha schema.AttrID) {
	if len(bwd) == 0 {
		if start != alpha && !w.fn(w.chain) {
			w.aborted = true
		}
		return
	}
	for _, h := range w.cc.attrTo[int(start)*w.cc.numSchemas+bwd[0]] {
		if !w.inst.Has(h.cand) {
			continue
		}
		w.chain = append(w.chain, h.cand)
		w.walkBwd(h.other, bwd[1:], alpha)
		w.chain = w.chain[:len(w.chain)-1]
		if w.aborted {
			return
		}
	}
}

// ForEachChain streams the members of every violating chain through
// candidate c — exactly the chains ConflictsWith materializes — reusing
// scratch as the chain buffer. The slice passed to fn holds c first and
// is unsorted and only valid during the call; fn returning false aborts.
// The possibly-grown scratch is returned for reuse. This is the
// allocation-free path Engine.Repair uses for victim counting.
func (cc *Cycle) ForEachChain(inst *bitset.Set, c int, scratch []int, fn func(chain []int) bool) []int {
	w := chainWalker{cc: cc, inst: inst, fn: fn, chain: scratch}
	for _, p := range cc.plansFor(c) {
		if !p.edgesLive(inst) {
			continue
		}
		w.x0 = cc.endpointIn(c, p.seq[0])
		x1 := cc.endpointIn(c, p.seq[1])
		w.chain = append(w.chain[:0], c)
		w.walkFull(x1, p.full)
		if w.aborted {
			return w.chain[:0]
		}
		for _, seg := range p.segs {
			w.chain = w.chain[:1]
			w.walkFwd(x1, seg[0], seg[1])
			if w.aborted {
				return w.chain[:0]
			}
		}
	}
	return w.chain[:0]
}

// ConflictsWith implements Constraint.
func (cc *Cycle) ConflictsWith(inst *bitset.Set, c int) []Violation {
	var out []Violation
	for _, p := range cc.plansFor(c) {
		if !p.edgesLive(inst) {
			continue
		}
		cc.chainsThrough(inst, c, p, func(chain []int) bool {
			out = append(out, newViolation(KindCycle, chain...))
			return true
		})
	}
	return out
}

// Violations implements Constraint. Each chain is anchored at its unique
// candidate on the first edge of the cycle's canonical rotation, so each
// violation is reported exactly once per cycle.
func (cc *Cycle) Violations(inst *bitset.Set) []Violation {
	var out []Violation
	for _, p := range cc.canonical {
		for _, c := range cc.byPair[pairKey(p.seq[0], p.seq[1])] {
			if !inst.Has(c) {
				continue
			}
			cc.chainsThrough(inst, c, p, func(chain []int) bool {
				out = append(out, newViolation(KindCycle, chain...))
				return true
			})
		}
	}
	return out
}
