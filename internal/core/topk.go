package core

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// Lazy bound-pruned top-k suggestion ranking.
//
// The suggest hot path needs the maximal-gain candidate (and its exact
// tie set), not the full gain vector. A component's distribution is a
// product of independent live pieces (see pieces.go), and asserting c
// changes marginals only inside c's piece, so IG(c) = H_U − E[H_U | c]
// over the piece's store. Because an unasserted candidate's probability
// is exactly its empirical marginal counts_c/n over that store — the
// same distribution condEntropyPiece partitions — the gain decomposes
// into a sum of empirical pairwise mutual-information terms over the
// piece's uncertain, unasserted members U:
//
//	IG(c) = Σ_{d ∈ U} I(c; d),  0 ≤ I(c; d) ≤ min(H(p_c), H(p_d))
//
// (asserted members are skipped by the partition entropy; certain
// members contribute an exactly-zero term). The ranking below runs per
// piece, and a component's tie set is the best over its pieces; an
// assertion invalidates only the cached tie sets of the pieces it
// changed.
//
// Up to topkMatrixCap members, one serial pass counts the symmetric
// co-count matrix of U (upper triangle only — half the popcount work).
// That matrix makes one upper bound nearly free: each pairwise term
// satisfies I(c;d) ≤ χ²(joint ‖ product), a pure-arithmetic function of
// the pair's 2×2 contingency table (see chiMirrorSerial) that tracks
// the true mutual information to within a small factor. Candidates are
// evaluated from their matrix rows in descending-bound order; once the
// best evaluated gain dominates the next bound (beyond a strict
// floating-point margin) the tail is pruned. A pruned
// candidate's bound is below the running maximum, so it can be neither
// the arg-max nor a tie — the surviving tie set and its gain are
// *exactly* those of the exhaustive pass, and the per-candidate
// arithmetic is bit-identical (see partitionEntropySubset).
//
// Above the cap the matrix would cost nu² ints, and a separate bounding
// pass would cost as much as the evaluation it prunes, so every member
// is evaluated with the streaming block kernels — the one place the
// ranker shards across Config.Workers.
//
// Pieces whose cached entropy H_U cannot reach the component's running
// best, and components whose cached entropy term H_k cannot reach the
// network-wide best, are skipped wholesale.
// InformationGains is the exhaustive reference the tests hold this
// ranker to.

// topkBlock is the batch width of the CoCountsBlockInto kernel, which
// counts the co-count matrix's upper triangle and the serial streaming
// evaluation.
const topkBlock = 8

// topkMatrixCap is the largest uncertain-member count for which one
// pass builds the symmetric co-count matrix cw[i][j] = |c_i ∧ c_j| up
// front: the χ² bound and every exact evaluation then read rows instead
// of re-counting, and symmetry halves the popcount work. Above the cap
// (nu² ints ≳ 8 MB) the streaming kernels evaluate every member. A
// variable so tests can force the streaming path on small fixtures.
var topkMatrixCap = 1024

// topkScratch holds the reusable buffers of one component's lazy
// ranking passes (one piece at a time); owned by the component and used
// only under the same serialization as the rest of its maintenance.
type topkScratch struct {
	stale []*piece  // pieces awaiting a ranking, entropy descending
	u     *piece    // the piece being ranked
	cand  []int     // uncertain unasserted members, ascending global id
	ucols []int     // their store columns, same order
	h     []float64 // their binary entropies H(p_c)
	ub    []float64 // per-candidate χ² upper bound, aligned with cand
	gain  []float64 // evaluated gains, aligned with cand
	ord   []int     // indices into cand, upper bound descending

	// Block-kernel scratch: topkBlock count rows plus the candidates'
	// column vectors.
	bwith, bwithout [][]int
	bn, bno         []int
	bcols           [][]uint64

	// Co-count matrix scratch (nu ≤ topkMatrixCap): cw[i][j] = |c_i ∧ c_j|
	// over the store's n rows, marg[i] = cw[i][i] the candidates' own
	// counts. trows/twout are row views handed to the block kernel while
	// filling the upper triangle.
	cw           [][]int
	marg         []int
	n            int
	trows, twout [][]int

	// scr[w] is worker w's count/memo scratch; scr[0] doubles as the
	// serial path's. The asserted mask is never consulted — the subset
	// already excludes asserted members — so the igScratch asserted
	// field stays nil.
	scr []*igScratch
}

func (cp *component) ensureTopScratch() *topkScratch {
	if cp.topScratch == nil {
		cp.topScratch = &topkScratch{}
	}
	return cp.topScratch
}

// PruneMargin is the strict dominance slack of the exactness-preserving
// prune: a candidate (or component) is skipped only when its upper
// bound is below best − margin, so bound-vs-gain floating-point noise
// (≲1e-12 for the sum lengths involved) can never prune a true tie or
// a true maximum. Exported for the concurrent serving layer, whose
// Suggest applies the same component-entropy skip rule.
func PruneMargin(best float64) float64 {
	if best < 0 {
		return 0
	}
	return 1e-9 * (best + 1)
}

// TopGains returns component k's maximal-gain tie set (global candidate
// ids, ascending) among its uncertain, unasserted members and the gain
// they share, or (nil, -1) when no such member exists — exactly the
// Best of a freshly ranked snapshot. The result is cached on the
// component until the next assertion invalidates it. The returned slice
// must not be mutated. Like ApplyAssertions, it touches only component
// k's state, so calls for different components may run concurrently;
// calls for the same component must be serialized by the caller.
func (p *PMN) TopGains(k int) ([]int, float64) {
	cp := p.comps[k]
	if cp.topFresh {
		return cp.topTies, cp.topGain
	}
	return p.computeTopGains(k)
}

// computeTopGains ranks one stale component: pieces with fresh cached
// tie sets contribute for free, stale pieces are ranked in descending
// entropy order, and a stale piece whose entropy H_U — an upper bound on
// any member's gain — cannot reach the running best is skipped.
func (p *PMN) computeTopGains(k int) ([]int, float64) {
	cp := p.comps[k]
	ts := cp.ensureTopScratch()
	pieces := cp.pieces
	best := -1.0
	ts.stale = ts.stale[:0]
	for _, u := range pieces {
		if !u.fresh {
			ts.stale = append(ts.stale, u)
		} else if u.gain > best {
			best = u.gain
		}
	}
	sort.Slice(ts.stale, func(a, b int) bool {
		ua, ub := ts.stale[a], ts.stale[b]
		if ua.entropy != ub.entropy {
			return ua.entropy > ub.entropy
		}
		return ua.members[0] < ub.members[0]
	})
	for _, u := range ts.stale {
		if u.entropy < best-PruneMargin(best) {
			continue // IG ≤ H_U: no member can reach the best, ties included
		}
		if g := p.rankPiece(cp, u); g > best {
			best = g
		}
	}
	ties := cp.topTies[:0]
	if best >= 0 {
		for _, u := range pieces {
			if u.fresh && u.gain == best {
				ties = append(ties, u.ties...)
			}
		}
		sort.Ints(ties)
	}
	cp.topTies, cp.topGain, cp.topFresh = ties, best, true
	return ties, best
}

// rankPiece ranks one stale piece (see the package comment above):
// collect U, then either bound every member from the co-count matrix
// and evaluate members in descending-bound order until the running best
// strictly dominates the remaining bounds, or — above the matrix cap —
// evaluate every member. It caches and returns the piece's best gain.
func (p *PMN) rankPiece(cp *component, u *piece) float64 {
	ts := cp.topScratch
	ts.u = u
	net := p.Network()

	ts.cand, ts.ucols, ts.h = ts.cand[:0], ts.ucols[:0], ts.h[:0]
	for j, c := range u.members {
		if pc := p.probs[c]; pc > 0 && pc < 1 && !cp.isAsserted(c) && !net.Retired(c) {
			ts.cand = append(ts.cand, c)
			ts.ucols = append(ts.ucols, j)
			ts.h = append(ts.h, BinaryEntropy(pc))
		}
	}
	nu := len(ts.cand)
	if nu == 0 {
		u.ties, u.gain, u.fresh = u.ties[:0], -1, true
		return -1
	}

	if cap(ts.ub) < nu {
		ts.ub = make([]float64, nu)
		ts.gain = make([]float64, nu)
	}
	ts.ub, ts.gain = ts.ub[:nu], ts.gain[:nu]

	best := -1.0
	ties := u.ties[:0]
	take := func(i int) {
		switch g := ts.gain[i]; {
		case g > best:
			best = g
			ties = append(ties[:0], ts.cand[i])
		case g == best:
			ties = append(ties, ts.cand[i])
		}
	}
	if nu > topkMatrixCap {
		workers := p.cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > 1 {
			p.evalParallel(ts, workers)
		} else {
			for lo := 0; lo < nu; lo += topkBlock {
				p.evalBlockSerial(ts, lo, min(lo+topkBlock, nu))
			}
		}
		for i := 0; i < nu; i++ {
			take(i)
		}
	} else {
		countTriangle(ts)
		chiMirrorSerial(ts)
		ord := ts.ord[:0]
		for i := 0; i < nu; i++ {
			ord = append(ord, i)
		}
		ts.ord = ord
		sort.Slice(ord, func(a, b int) bool {
			ua, ub := ts.ub[ord[a]], ts.ub[ord[b]]
			if ua != ub {
				return ua > ub
			}
			return ts.cand[ord[a]] < ts.cand[ord[b]]
		})
		s := ts.workerScratch(p, 0)
		for _, i := range ord {
			if ts.ub[i] < best-PruneMargin(best) {
				break // ord is bound-descending: the whole tail is dominated
			}
			ts.gain[i] = p.evalMatrixOne(ts, s, i)
			take(i)
		}
	}
	sort.Ints(ties)
	u.ties, u.gain, u.fresh = ties, best, true
	return best
}

// ensureBlockBufs sizes the serial block-kernel count rows for a pass
// over nu subset columns.
func (ts *topkScratch) ensureBlockBufs(nu int) {
	if ts.bwith == nil {
		ts.bwith = make([][]int, topkBlock)
		ts.bwithout = make([][]int, topkBlock)
		ts.bn = make([]int, topkBlock)
		ts.bno = make([]int, topkBlock)
		ts.bcols = make([][]uint64, topkBlock)
	}
	for i := range ts.bwith {
		if cap(ts.bwith[i]) < nu {
			ts.bwith[i] = make([]int, nu)
			ts.bwithout[i] = make([]int, nu)
		}
		ts.bwith[i] = ts.bwith[i][:nu]
		ts.bwithout[i] = ts.bwithout[i][:nu]
	}
}

// countTriangle counts the upper triangle (diagonal included) of the
// symmetric co-count matrix with the block kernel; chiMirrorSerial
// mirrors it into the lower half. |c_i ∧ c_j| is one number, so a
// mirrored lower-triangle entry is exactly what a direct count would
// produce, and every downstream row read is bit-identical to a
// streaming CoCountsSubsetInto row.
func countTriangle(ts *topkScratch) {
	st := ts.u.store
	nu := len(ts.cand)
	ts.n = st.Size()
	if cap(ts.cw) < nu {
		ts.cw = append(ts.cw[:cap(ts.cw)], make([][]int, nu-cap(ts.cw))...)
	}
	ts.cw = ts.cw[:nu]
	for i := range ts.cw {
		if cap(ts.cw[i]) < nu {
			ts.cw[i] = make([]int, nu)
		}
		ts.cw[i] = ts.cw[i][:nu]
	}
	if cap(ts.marg) < nu {
		ts.marg = make([]int, nu)
	}
	ts.marg = ts.marg[:nu]

	ts.ensureBlockBufs(nu)
	if ts.trows == nil {
		ts.trows = make([][]int, topkBlock)
		ts.twout = make([][]int, topkBlock)
	}
	for lo := 0; lo < nu; lo += topkBlock {
		hi := min(lo+topkBlock, nu)
		b := hi - lo
		for bi := 0; bi < b; bi++ {
			ts.trows[bi] = ts.cw[lo+bi][lo:]
			ts.twout[bi] = ts.bwithout[bi][:nu-lo]
		}
		st.CoCountsBlockInto(ts.cand[lo:hi], ts.ucols[lo:], ts.bcols[:b], ts.trows[:b], ts.twout[:b], ts.bn[:b], ts.bno[:b])
		for bi := 0; bi < b; bi++ {
			ts.marg[lo+bi] = ts.bn[bi]
		}
	}
}

// chiMirrorSerial is the χ² bounding pass over the co-count matrix.
// Each pairwise term of IG(c) is an empirical mutual information
// I(c;d); for the 2×2 contingency table with cells a=|c∧d|, b=|c∧¬d|,
// e=|¬c∧d|, f=|¬c∧¬d| and margins r₁=a+b, r₀=e+f, s₁=a+e, s₀=b+f,
//
//	I(c;d) = KL(joint ‖ product) ≤ χ²(joint ‖ product) nats
//	       = det²/(r₁·r₀·s₁·s₀),  det = a·f − b·e
//
// (the classical ln t ≤ t−1 bound on KL; exact when det = 0), further
// capped by min(H(p_c), H(p_d)). The χ² value is ≈ 2·I(c;d)·ln 2 for
// weak correlations, so unlike the min-entropy bound it tracks the true
// gain to within a small factor. Every product fits the float64 integer
// range for any realistic sample count, so the bound is deterministic
// across platforms.
//
// One walk of the upper triangle mirrors each entry into the lower
// half and adds the pair's bound to *both* endpoints' sums, so symmetry
// halves the arithmetic. Candidate i's sum accumulates partners in
// ascending-j order (pairs (k, i), k < i arrive from earlier rows in k
// order, the rest from its own row).
func chiMirrorSerial(ts *topkScratch) {
	nu := len(ts.cand)
	n := ts.n
	for i := range ts.ub[:nu] {
		ts.ub[i] = 0
	}
	for k := 0; k < nu; k++ {
		rowk := ts.cw[k]
		hk := ts.h[k]
		mk := ts.marg[k]
		r1, r0 := float64(mk), float64(n-mk)
		sum := ts.ub[k] // partners 0..k−1, accumulated by earlier rows
		for j := k; j < nu; j++ {
			a := rowk[j]
			e := ts.marg[j] - a
			s1 := float64(a + e)
			s0 := r1 + r0 - s1
			det := float64(a)*(r0-float64(e)) - (r1-float64(a))*float64(e)
			b := det * det / (r1 * r0 * s1 * s0) / math.Ln2
			if h := ts.h[j]; h < b {
				b = h
			}
			if hk < b {
				b = hk
			}
			sum += b
			if j > k {
				ts.cw[j][k] = a // mirror while the entry is hot
				ts.ub[j] += b
			}
		}
		ts.ub[k] = sum
	}
}

// evalMatrixOne computes one candidate's exact gain from its co-count
// matrix row — entropy sums only, no count pass. The reconstructed
// without counts and partition totals are the same integers the
// streaming kernels produce, each entropy term comes from the same
// persistent memo (its rows hoisted out of the loop: partition totals
// are fixed per candidate), and the two sums accumulate in the same
// subset order, so the gain is bit-identical to evalBlockSerial's.
func (p *PMN) evalMatrixOne(ts *topkScratch, s *igScratch, i int) float64 {
	row := ts.cw[i]
	nW := ts.marg[i]
	nWo := ts.n - nW
	rp, rm := s.etabRow(nW), s.etabRow(nWo)
	hPlus, hMinus := 0.0, 0.0
	for j, a := range row {
		v := rp[a]
		if v < 0 {
			v = BinaryEntropy(float64(a) / float64(nW))
			rp[a] = v
		}
		hPlus += v
		e := ts.marg[j] - a
		w := rm[e]
		if w < 0 {
			w = BinaryEntropy(float64(e) / float64(nWo))
			rm[e] = w
		}
		hMinus += w
	}
	return gainFrom(ts.u.entropy, p.probs[ts.cand[i]], hPlus, hMinus)
}

// gainFrom is IG(c) = H_U − (p_c·H⁺ + (1−p_c)·H⁻), clamped at zero —
// the arithmetic of the exhaustive pass, shared by every ranker kernel
// so their gains agree bit-for-bit.
func gainFrom(hu, pc, hPlus, hMinus float64) float64 {
	ig := hu - (pc*hPlus + (1-pc)*hMinus)
	if ig < 0 {
		return 0
	}
	return ig
}

// evalBlockSerial evaluates cand[lo:hi] through the batched
// CoCountsBlockInto kernel: one sweep over the subset columns serves
// the whole block.
func (p *PMN) evalBlockSerial(ts *topkScratch, lo, hi int) {
	b := hi - lo
	ts.ensureBlockBufs(len(ts.cand))
	s := ts.workerScratch(p, 0)
	ts.u.store.CoCountsBlockInto(ts.cand[lo:hi], ts.ucols, ts.bcols[:b], ts.bwith[:b], ts.bwithout[:b], ts.bn[:b], ts.bno[:b])
	for bi := 0; bi < b; bi++ {
		hPlus := p.partitionEntropySubset(ts.bwith[bi], ts.bn[bi], s)
		hMinus := p.partitionEntropySubset(ts.bwithout[bi], ts.bno[bi], s)
		ts.gain[lo+bi] = gainFrom(ts.u.entropy, p.probs[ts.cand[lo+bi]], hPlus, hMinus)
	}
}

// evalParallel evaluates every candidate with a strided worker shard
// and per-worker scratch. Counts are integers and the per-candidate
// arithmetic is identical to the serial kernel, so the results do not
// depend on the worker count or schedule.
func (p *PMN) evalParallel(ts *topkScratch, workers int) {
	st := ts.u.store
	nu := len(ts.cand)
	workers = min(workers, nu)
	for w := 0; w < workers; w++ {
		ts.workerScratch(p, w)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := ts.scr[w]
			for i := w; i < nu; i += workers {
				c := ts.cand[i]
				nW, nWo := st.CoCountsSubsetInto(c, ts.ucols, s.with, s.without)
				hPlus := p.partitionEntropySubset(s.with[:nu], nW, s)
				hMinus := p.partitionEntropySubset(s.without[:nu], nWo, s)
				ts.gain[i] = gainFrom(ts.u.entropy, p.probs[c], hPlus, hMinus)
			}
		}(w)
	}
	wg.Wait()
}

// workerScratch returns (allocating on first use) worker w's count
// buffers.
func (ts *topkScratch) workerScratch(p *PMN, w int) *igScratch {
	for len(ts.scr) <= w {
		ts.scr = append(ts.scr, nil)
	}
	if ts.scr[w] == nil {
		ts.scr[w] = p.newScratch(nil)
	}
	return ts.scr[w]
}

// TopGainTies returns the uncertain, unasserted candidates achieving
// the network-maximal information gain (ascending ids — exactly the tie
// set the exhaustive InfoGainStrategy scan would collect) and that
// gain, or (nil, -1) when no uncertain unasserted candidate remains.
// Components with fresh cached tie sets contribute for free; stale
// components are ranked lazily in descending cached-entropy order, and
// a stale component whose entropy term H_k — an upper bound on any
// member's gain — cannot reach the running best is skipped without any
// ranking work at all.
func (p *PMN) TopGainTies() ([]int, float64) {
	best := -1.0
	var stale []int
	for k, cp := range p.comps {
		if cp.topFresh {
			if cp.topGain > best {
				best = cp.topGain
			}
		} else {
			stale = append(stale, k)
		}
	}
	sort.Slice(stale, func(a, b int) bool {
		ha, hb := p.comps[stale[a]].entropy, p.comps[stale[b]].entropy
		if ha != hb {
			return ha > hb
		}
		return stale[a] < stale[b]
	})
	for _, k := range stale {
		if p.comps[k].entropy < best-PruneMargin(best) {
			continue // IG ≤ H_k: no member can reach the best, ties included
		}
		if _, g := p.TopGains(k); g > best {
			best = g
		}
	}
	if best < 0 {
		return nil, -1
	}
	var ties []int
	for _, cp := range p.comps {
		if cp.topFresh && cp.topGain == best {
			ties = append(ties, cp.topTies...)
		}
	}
	sort.Ints(ties)
	return ties, best
}
