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
// tie set), not the full gain vector. Because an unasserted candidate's
// probability is exactly its empirical marginal counts_c/n over the
// component's store — the same distribution condEntropyComp partitions —
// the component-local gain decomposes into a sum of empirical pairwise
// mutual-information terms over the uncertain, unasserted members U:
//
//	IG(c) = Σ_{d ∈ U} I(c; d),  0 ≤ I(c; d) ≤ min(H(p_c), H(p_d))
//
// (asserted members are skipped by the partition entropy; certain
// members contribute an exactly-zero term). Three upper bounds apply:
//
//   - χ²: each pairwise term satisfies I(c;d) ≤ χ²(joint ‖ product) —
//     a pure-arithmetic function of the pair's 2×2 contingency table
//     (see chiGainBound) that tracks the true mutual information to
//     within a small factor. One count pass over U×U bounds every
//     candidate; up to topkMatrixCap members the pass builds the
//     symmetric co-count matrix (upper triangle only — half the
//     popcount work) that the exact evaluations below then read rows
//     from instead of re-counting;
//   - delta: IG_new(c) ≤ IG_old(c) + |U|·D(δ), where δ bounds the total
//     variation between the store's empirical distribution now and at
//     c's last evaluation (pure row compaction of r of n rows gives
//     δ = r/n) and D(δ) is an entropy-continuity (Fannes/Audenaert)
//     bound on how much one pairwise term can move (see noteDrift);
//   - static (streaming fallback above the matrix cap): sort U's binary
//     entropies descending, h_1 ≥ … ≥ h_M with prefix sums S_i; the
//     candidate at sorted position i satisfies
//     IG ≤ i·h_i + (S_M − S_i) ≤ H_k — the "cached entropy term" bound,
//     tightened per candidate.
//
// Candidates are evaluated in descending-upper-bound order in fixed
// blocks; once the best evaluated gain dominates every remaining bound
// (beyond a strict floating-point margin) the tail is pruned. A pruned
// candidate's bound is below the running maximum, so it can be neither
// the arg-max nor a tie — the surviving tie set and its gain are
// *exactly* those of the exhaustive pass, and the per-candidate
// arithmetic is bit-identical (see partitionEntropySubset). Components
// whose cached entropy term H_k cannot reach the network-wide best are
// skipped wholesale by TopGainTies. InformationGains is the exhaustive
// reference the tests hold this ranker to.

const (
	// topkBlock is how many candidates one lazy round evaluates before
	// re-checking the pruning bar — also the batch width of the
	// CoCountsBlockInto kernel. Fixed (never worker-dependent) so the
	// evaluated set is deterministic regardless of parallelism.
	topkBlock = 8

	// log2of3 appears in the Audenaert continuity bound for the 4-outcome
	// joint distribution of a candidate pair.
	log2of3 = 1.584962500721156

	// topkMatrixCap is the largest uncertain-member count for which one
	// pass builds the symmetric co-count matrix cw[i][j] = |c_i ∧ c_j|
	// up front: the χ² bound and every exact evaluation then read rows
	// instead of re-counting, and symmetry halves the popcount work.
	// Above the cap (nu² ints ≳ 8 MB) the streaming kernels are used.
	topkMatrixCap = 1024
)

// rankParallelMin is the uncertain-member count at which the lazy
// evaluator shards a block across Config.Workers; below it the
// goroutine fan-out costs more than the count passes. A variable so
// tests can force the parallel path on small fixtures.
var rankParallelMin = 33

// topkScratch holds the reusable buffers of one component's lazy
// ranking pass; owned by the component and used only under the same
// serialization as the rest of its maintenance.
type topkScratch struct {
	cand  []int     // uncertain unasserted members, ascending global id
	ucols []int     // their store columns, same order
	h     []float64 // their binary entropies H(p_c)
	ub    []float64 // per-candidate upper bound, aligned with cand
	gain  []float64 // evaluated gains, aligned with cand
	ord   []int     // indices into cand, upper bound descending
	ties  []int     // result accumulator

	// Block-kernel scratch (serial path): topkBlock count rows plus the
	// candidates' column vectors and global ids.
	bwith, bwithout [][]int
	bn, bno         []int
	bcols           [][]uint64
	bcand           []int

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

// noteDrift accrues the delta-bound drift for one integrated assertion:
// the component's store went from `before` rows to `after`, `kept` of
// which survived verbatim, while `free` unasserted members remain. The
// total-variation distance between the two empirical row distributions
// is at most
//
//	δ = ½·( kept·|1/after − 1/before| + (before−kept)/before + (after−kept)/after )
//
// (an undercounted kept only enlarges δ — the expression is
// non-increasing in kept). Each pairwise mutual-information term I(c;d)
// is a ± combination of two binary marginal entropies and one 4-outcome
// joint entropy, all of distributions within total variation δ of their
// old selves (data processing), so it moves by at most
// D(δ) = 2·B(δ) + J(δ) with the Fannes/Audenaert continuity bounds
// B(δ) = H_b(δ) (δ ≤ ½, else the trivial 1) and
// J(δ) = δ·log₂3 + H_b(δ) (δ ≤ ¾, else the trivial 2). Summed over the
// at-most-`free` surviving terms of any gain, driftTotal advances by
// free·D(δ). Degenerate geometry (an emptied or refilled-from-empty
// store) invalidates instead.
func (cp *component) noteDrift(before, after, kept, free int) {
	if before == 0 || after == 0 {
		cp.driftEpoch++
		return
	}
	tv := 0.5 * (float64(kept)*math.Abs(1/float64(after)-1/float64(before)) +
		float64(before-kept)/float64(before) +
		float64(after-kept)/float64(after))
	if tv <= 0 {
		return
	}
	bin := 1.0
	if tv <= 0.5 {
		bin = BinaryEntropy(tv)
	}
	joint := 2.0
	if tv <= 0.75 {
		if j := tv*log2of3 + BinaryEntropy(tv); j < joint {
			joint = j
		}
	}
	cp.driftTotal += float64(free) * (2*bin + joint)
}

// deltaBound returns the "previous gain plus drift" upper bound for the
// member at column j, when a recorded evaluation is still valid for the
// current drift epoch.
func (cp *component) deltaBound(j int) (float64, bool) {
	if cp.evalGain == nil || cp.evalEpoch[j] != cp.driftEpoch {
		return 0, false
	}
	return cp.evalGain[j] + (cp.driftTotal - cp.evalDrift[j]), true
}

// recordEval stores the evaluated gain of the member at column j
// together with the drift state it was computed under.
func (cp *component) recordEval(j int, g float64, m int) {
	if cp.evalGain == nil {
		cp.evalGain = make([]float64, m)
		cp.evalDrift = make([]float64, m)
		cp.evalEpoch = make([]uint64, m)
	}
	cp.evalGain[j] = g
	cp.evalDrift[j] = cp.driftTotal
	cp.evalEpoch[j] = cp.driftEpoch
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

// computeTopGains is the lazy bound-pruned evaluation of one stale
// component (see the package comment above): collect U, bound every
// member, evaluate blocks in descending-bound order, stop when the
// running best strictly dominates the remaining bounds.
func (p *PMN) computeTopGains(k int) ([]int, float64) {
	cp := p.comps[k]
	ts := cp.ensureTopScratch()
	net := p.Network()

	ts.cand, ts.ucols, ts.h = ts.cand[:0], ts.ucols[:0], ts.h[:0]
	collect := func(j, c int) {
		if pc := p.probs[c]; pc > 0 && pc < 1 && !cp.isAsserted(c) && !net.Retired(c) {
			ts.cand = append(ts.cand, c)
			ts.ucols = append(ts.ucols, j)
			ts.h = append(ts.h, BinaryEntropy(pc))
		}
	}
	if cp.members == nil {
		for c := range p.probs {
			collect(c, c)
		}
	} else {
		for j, c := range cp.members {
			collect(j, c)
		}
	}
	nu := len(ts.cand)
	if nu == 0 {
		cp.topTies, cp.topGain, cp.topFresh = cp.topTies[:0], -1, true
		return cp.topTies, -1
	}

	ord := ts.ord[:0]
	for i := 0; i < nu; i++ {
		ord = append(ord, i)
	}
	if cap(ts.ub) < nu {
		ts.ub = make([]float64, nu)
		ts.gain = make([]float64, nu)
	}
	ts.ub, ts.gain = ts.ub[:nu], ts.gain[:nu]
	workers := p.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parallel := nu >= rankParallelMin && workers > 1

	// χ² bounding: one arithmetic-only count pass over U replaces the
	// entropy-bearing evaluation for most candidates. The static
	// prefix-sum bound is off by an order of magnitude on hub-heavy
	// components (min(h_c, h_d) assumes every pair is perfectly
	// correlated); the pairwise χ² bound tracks the actual mutual
	// information to within ~2x, so the exact pass below usually touches
	// only the top block. Up to topkMatrixCap members the pass
	// materializes the symmetric co-count matrix — counted once over the
	// upper triangle, shared by the χ² bound and every exact evaluation
	// below — and the dominated static bound is skipped entirely.
	useMx := nu <= topkMatrixCap
	if useMx {
		p.countTriangle(cp, ts, workers, parallel)
		if parallel {
			chiFromMatrix(ts, workers)
		} else {
			chiMirrorSerial(ts)
		}
		for i := 0; i < nu; i++ {
			if db, ok := cp.deltaBound(ts.ucols[i]); ok && db < ts.ub[i] {
				ts.ub[i] = db
			}
		}
	} else {
		// Static bound via the descending-entropy prefix sums, tightened
		// by the delta bound where a valid previous evaluation exists,
		// then by the streaming χ² pass.
		sort.Slice(ord, func(a, b int) bool {
			ha, hb := ts.h[ord[a]], ts.h[ord[b]]
			if ha != hb {
				return ha > hb
			}
			return ts.cand[ord[a]] < ts.cand[ord[b]]
		})
		suffix := 0.0
		for pos := nu - 1; pos >= 0; pos-- {
			i := ord[pos]
			ub := float64(pos+1)*ts.h[i] + suffix
			suffix += ts.h[i]
			if db, ok := cp.deltaBound(ts.ucols[i]); ok && db < ub {
				ub = db
			}
			ts.ub[i] = ub
		}
		if parallel {
			p.chiBoundParallel(cp, ts, workers)
		} else {
			p.chiBoundSerial(cp, ts)
		}
	}
	sort.Slice(ord, func(a, b int) bool {
		ua, ub := ts.ub[ord[a]], ts.ub[ord[b]]
		if ua != ub {
			return ua > ub
		}
		return ts.cand[ord[a]] < ts.cand[ord[b]]
	})
	ts.ord = ord

	best := -1.0
	ties := ts.ties[:0]
	for pos := 0; pos < nu; {
		if ts.ub[ord[pos]] < best-PruneMargin(best) {
			break // ord is bound-descending: the whole tail is dominated
		}
		hi := pos + topkBlock
		if hi > nu {
			hi = nu
		}
		for hi > pos+1 && ts.ub[ord[hi-1]] < best-PruneMargin(best) {
			hi--
		}
		switch {
		case useMx:
			p.evalBlockMatrix(cp, ts, pos, hi, workers, parallel)
		case parallel && hi-pos > 1:
			p.evalBlockParallel(cp, ts, pos, hi, workers)
		default:
			p.evalBlockSerial(cp, ts, pos, hi)
		}
		for _, i := range ord[pos:hi] {
			g := ts.gain[i]
			cp.recordEval(ts.ucols[i], g, storeColumns(cp, len(p.probs)))
			switch {
			case g > best:
				best = g
				ties = append(ties[:0], ts.cand[i])
			case g == best:
				ties = append(ties, ts.cand[i])
			}
		}
		pos = hi
	}
	sort.Ints(ties)
	ts.ties = ties
	cp.topTies, cp.topGain, cp.topFresh = ties, best, true
	return ties, best
}

// storeColumns sizes the per-column evaluation records: the member
// count for a decomposed component, the universe for a whole-universe
// one.
func storeColumns(cp *component, universe int) int {
	if cp.members != nil {
		return len(cp.members)
	}
	return universe
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

// chiGainBound turns one candidate's partition counts into an upper
// bound on its exact gain, using only arithmetic. Each pairwise term
// of IG(c) is an empirical mutual information I(c;d); for the 2×2
// contingency table with cells a=|c∧d|, b=|c∧¬d|, e=|¬c∧d|, f=|¬c∧¬d|
// and margins r₁=a+b, r₀=e+f, s₁=a+e, s₀=b+f,
//
//	I(c;d) = KL(joint ‖ product) ≤ χ²(joint ‖ product) nats
//	       = det²/(r₁·r₀·s₁·s₀),  det = a·f − b·e
//
// (the classical ln t ≤ t−1 bound on KL; exact when det = 0). The χ²
// value is ≈ 2·I(c;d)·ln 2 for weak correlations, so unlike the
// min-entropy bound it tracks the true gain to within a small factor.
// Every product fits float64 integer range for any realistic sample
// count, so the bound is deterministic across platforms and workers.
func chiGainBound(ts *topkScratch, i int, with, without []int, nW, nWo int) float64 {
	hc := ts.h[i]
	r1, r0 := float64(nW), float64(nWo)
	sum := 0.0
	for j, a := range with {
		e := without[j]
		s1 := float64(a + e)
		s0 := r1 + r0 - s1
		det := float64(a)*(r0-float64(e)) - (r1-float64(a))*float64(e)
		bound := det * det / (r1 * r0 * s1 * s0) / math.Ln2
		if hd := ts.h[j]; hd < bound {
			bound = hd
		}
		if hc < bound {
			bound = hc
		}
		sum += bound
	}
	return sum
}

// chiBoundSerial tightens every candidate's upper bound with the χ²
// pass: blocked subset counts (the same kernel the exact pass uses)
// followed by the per-pair arithmetic bound.
func (p *PMN) chiBoundSerial(cp *component, ts *topkScratch) {
	st := cp.store()
	nu := len(ts.cand)
	ts.ensureBlockBufs(nu)
	for lo := 0; lo < nu; lo += topkBlock {
		hi := lo + topkBlock
		if hi > nu {
			hi = nu
		}
		b := hi - lo
		st.CoCountsBlockInto(ts.cand[lo:hi], ts.ucols, ts.bcols[:b], ts.bwith[:b], ts.bwithout[:b], ts.bn[:b], ts.bno[:b])
		for bi := 0; bi < b; bi++ {
			i := lo + bi
			if ub := chiGainBound(ts, i, ts.bwith[bi], ts.bwithout[bi], ts.bn[bi], ts.bno[bi]); ub < ts.ub[i] {
				ts.ub[i] = ub
			}
		}
	}
}

// chiBoundParallel is chiBoundSerial with candidates strided across
// workers, each with its own count scratch. The bound is a pure
// function of one candidate's integer counts, so the result does not
// depend on the worker count or schedule.
func (p *PMN) chiBoundParallel(cp *component, ts *topkScratch, workers int) {
	st := cp.store()
	nu := len(ts.cand)
	if workers > nu {
		workers = nu
	}
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
				nW, nWo := st.CoCountsSubsetInto(ts.cand[i], ts.ucols, s.with, s.without)
				if ub := chiGainBound(ts, i, s.with[:nu], s.without[:nu], nW, nWo); ub < ts.ub[i] {
					ts.ub[i] = ub
				}
			}
		}(w)
	}
	wg.Wait()
}

// countTriangle counts the upper triangle (diagonal included) of the
// symmetric co-count matrix with the columnar kernels. |c_i ∧ c_j| is
// one number, so a mirrored lower-triangle entry is exactly what a
// direct count would produce, and every downstream row read is
// bit-identical to a streaming CoCountsSubsetInto row. The serial χ²
// pass mirrors as it goes; the parallel path mirrors here so the
// per-row passes can read full rows.
func (p *PMN) countTriangle(cp *component, ts *topkScratch, workers int, parallel bool) {
	st := cp.store()
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

	if parallel {
		// Upper-triangle rows strided across workers; rows shrink with i,
		// so striding (not chunking) balances the load.
		if workers > nu {
			workers = nu
		}
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
					nW, _ := st.CoCountsSubsetInto(ts.cand[i], ts.ucols[i:], ts.cw[i][i:], s.without)
					ts.marg[i] = nW
				}
			}(w)
		}
		wg.Wait()
		for i := 1; i < nu; i++ {
			row := ts.cw[i]
			for j := 0; j < i; j++ {
				row[j] = ts.cw[j][i]
			}
		}
	} else {
		ts.ensureBlockBufs(nu)
		if ts.trows == nil {
			ts.trows = make([][]int, topkBlock)
			ts.twout = make([][]int, topkBlock)
		}
		for lo := 0; lo < nu; lo += topkBlock {
			hi := lo + topkBlock
			if hi > nu {
				hi = nu
			}
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
}

// chiMirrorSerial is the serial χ² bounding pass over the co-count
// matrix: one walk of the upper triangle mirrors each entry into the
// lower half and adds the pair's bound to *both* endpoints' sums —
// the bound of pair (i, j) is one number (see chiRowFromMatrix for
// why the two perspectives agree bit-for-bit), so symmetry halves the
// arithmetic. Candidate i's sum accumulates partners in ascending-j
// order (pairs (k, i), k < i arrive from earlier rows in k order, the
// rest from its own row), exactly the order of a full-row pass, so
// ts.ub ends bit-identical to the parallel chiRowFromMatrix result.
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

// chiRowFromMatrix sums candidate i's pairwise χ² bounds from its
// (mirrored) matrix row. Every pair is computed from the
// lower-indexed endpoint's perspective: the pair bound is symmetric
// in exact arithmetic, and because every margin, cell, and product of
// four margins fits the float64 integer range, the normalized
// computation yields the same bits regardless of which row requests
// it — what makes chiMirrorSerial's shared-pair accumulation and this
// per-row pass interchangeable, independent of worker count.
func chiRowFromMatrix(ts *topkScratch, i int) float64 {
	nu := len(ts.cand)
	n := ts.n
	row := ts.cw[i]
	hi := ts.h[i]
	mi := ts.marg[i]
	sum := 0.0
	for j := 0; j < i; j++ { // partner is the lower index: its perspective
		a := row[j]
		mj := ts.marg[j]
		r1, r0 := float64(mj), float64(n-mj)
		e := mi - a
		s1 := float64(a + e)
		s0 := r1 + r0 - s1
		det := float64(a)*(r0-float64(e)) - (r1-float64(a))*float64(e)
		b := det * det / (r1 * r0 * s1 * s0) / math.Ln2
		if h := ts.h[j]; h < b {
			b = h
		}
		if hi < b {
			b = hi
		}
		sum += b
	}
	r1, r0 := float64(mi), float64(n-mi)
	for j := i; j < nu; j++ {
		a := row[j]
		e := ts.marg[j] - a
		s1 := float64(a + e)
		s0 := r1 + r0 - s1
		det := float64(a)*(r0-float64(e)) - (r1-float64(a))*float64(e)
		b := det * det / (r1 * r0 * s1 * s0) / math.Ln2
		if h := ts.h[j]; h < b {
			b = h
		}
		if hi < b {
			b = hi
		}
		sum += b
	}
	return sum
}

// chiFromMatrix writes every candidate's χ² bound from its matrix row,
// sharding rows across workers. Each row's bound is a pure function of
// the shared integer matrix with a disjoint output slot, so the result
// does not depend on the worker count or schedule.
func chiFromMatrix(ts *topkScratch, workers int) {
	nu := len(ts.cand)
	if workers > nu {
		workers = nu
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nu; i += workers {
				ts.ub[i] = chiRowFromMatrix(ts, i)
			}
		}(w)
	}
	wg.Wait()
}

// evalMatrixOne computes one candidate's exact gain from its co-count
// matrix row — entropy sums only, no count pass. The reconstructed
// without counts and partition totals are the same integers the
// streaming kernels produce, each entropy term comes from the same
// persistent memo (its rows hoisted out of the loop: partition totals
// are fixed per candidate), and the two sums accumulate in the same
// subset order, so the gain is bit-identical to evalBlockSerial's.
func (p *PMN) evalMatrixOne(cp *component, ts *topkScratch, s *igScratch, i int) float64 {
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
	pc := p.probs[ts.cand[i]]
	ig := cp.entropy - (pc*hPlus + (1-pc)*hMinus)
	if ig < 0 {
		ig = 0
	}
	return ig
}

// evalBlockMatrix evaluates ord[lo:hi] from the co-count matrix,
// sharding candidates across workers when the pass is parallel. Gains
// are pure per-candidate functions of the shared integer matrix with
// disjoint output slots, so results do not depend on the schedule.
func (p *PMN) evalBlockMatrix(cp *component, ts *topkScratch, lo, hi, workers int, parallel bool) {
	if !parallel || hi-lo == 1 {
		s := ts.workerScratch(p, 0)
		for _, i := range ts.ord[lo:hi] {
			ts.gain[i] = p.evalMatrixOne(cp, ts, s, i)
		}
		return
	}
	if workers > hi-lo {
		workers = hi - lo
	}
	for w := 0; w < workers; w++ {
		ts.workerScratch(p, w)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := ts.scr[w]
			for bi := lo + w; bi < hi; bi += workers {
				i := ts.ord[bi]
				ts.gain[i] = p.evalMatrixOne(cp, ts, s, i)
			}
		}(w)
	}
	wg.Wait()
}

// evalBlockSerial evaluates ord[lo:hi] through the batched
// CoCountsBlockInto kernel: one sweep over the subset columns serves
// the whole block.
func (p *PMN) evalBlockSerial(cp *component, ts *topkScratch, lo, hi int) {
	st := cp.store()
	nu := len(ts.cand)
	b := hi - lo
	ts.ensureBlockBufs(nu)
	s := ts.workerScratch(p, 0)
	cands := ts.bcand[:0]
	for _, i := range ts.ord[lo:hi] {
		cands = append(cands, ts.cand[i])
	}
	ts.bcand = cands
	st.CoCountsBlockInto(cands, ts.ucols, ts.bcols[:b], ts.bwith[:b], ts.bwithout[:b], ts.bn[:b], ts.bno[:b])
	for bi, i := range ts.ord[lo:hi] {
		pc := p.probs[ts.cand[i]]
		hPlus := p.partitionEntropySubset(ts.bwith[bi], ts.bn[bi], s)
		hMinus := p.partitionEntropySubset(ts.bwithout[bi], ts.bno[bi], s)
		ig := cp.entropy - (pc*hPlus + (1-pc)*hMinus)
		if ig < 0 {
			ig = 0
		}
		ts.gain[i] = ig
	}
}

// evalBlockParallel evaluates ord[lo:hi] with a strided worker shard
// and per-worker scratch. Counts are integers and the per-candidate
// arithmetic is identical to the serial kernel, so the results do not
// depend on the worker count or schedule.
func (p *PMN) evalBlockParallel(cp *component, ts *topkScratch, lo, hi, workers int) {
	st := cp.store()
	nu := len(ts.cand)
	if workers > hi-lo {
		workers = hi - lo
	}
	for w := 0; w < workers; w++ {
		ts.workerScratch(p, w)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := ts.scr[w]
			for bi := lo + w; bi < hi; bi += workers {
				i := ts.ord[bi]
				c := ts.cand[i]
				pc := p.probs[c]
				nW, nWo := st.CoCountsSubsetInto(c, ts.ucols, s.with, s.without)
				hPlus := p.partitionEntropySubset(s.with[:nu], nW, s)
				hMinus := p.partitionEntropySubset(s.without[:nu], nWo, s)
				ig := cp.entropy - (pc*hPlus + (1-pc)*hMinus)
				if ig < 0 {
					ig = 0
				}
				ts.gain[i] = ig
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
