package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// BinaryEntropy returns −p·log₂p − (1−p)·log₂(1−p), the entropy of one
// correspondence-selection variable; 0 at p ∈ {0, 1}.
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// igScratch holds the per-worker buffers of the ranking pass: the
// batched co-occurrence counts of one candidate (column-indexed within
// its piece's store), a memo table of partition entropies, and the
// hoisted asserted-candidate mask (global-indexed).
type igScratch struct {
	with     []int
	without  []int
	tab      []float64 // tab[k] memoizes BinaryEntropy(k/total); -1 = unset
	asserted []bool    // asserted[d] = feedback.IsAsserted(d), per-pass constant

	// etab[total][cnt] is a persistent memo of BinaryEntropy(cnt/total)
	// — a pure function of the integer pair, so entries never
	// invalidate and survive across passes, assertions, and refills.
	// The per-pass tab above amortizes log2 within one large partition;
	// etab amortizes it across the lazy evaluator's many small subset
	// partitions, whose (cnt, total) pairs repeat heavily from step to
	// step. Scratches are per-worker, so lazy fills never race.
	etab [][]float64
}

// etabRow returns (allocating on first use) the memo row of one
// partition size, so per-partition loops hoist the outer-table probes.
func (s *igScratch) etabRow(total int) []float64 {
	if total >= len(s.etab) {
		grown := make([][]float64, total+1)
		copy(grown, s.etab)
		s.etab = grown
	}
	row := s.etab[total]
	if row == nil {
		row = make([]float64, total+1)
		for i := range row {
			row[i] = -1
		}
		s.etab[total] = row
	}
	return row
}

// binEntAt returns BinaryEntropy(cnt/total) through the persistent
// memo: the value is computed by the identical expression on a miss,
// so a hit is bit-for-bit the same float64 the direct call returns.
func (s *igScratch) binEntAt(cnt, total int) float64 {
	row := s.etabRow(total)
	if v := row[cnt]; v >= 0 {
		return v // BinaryEntropy is non-negative; -1 marks unset
	}
	v := BinaryEntropy(float64(cnt) / float64(total))
	row[cnt] = v
	return v
}

func (p *PMN) newScratch(asserted []bool) *igScratch {
	return &igScratch{
		with:     make([]int, p.maxComp),
		without:  make([]int, p.maxComp),
		asserted: asserted,
	}
}

// assertedMask hoists feedback.IsAsserted out of the ranking inner loop
// (two bounds-checked bitset probes per candidate pair otherwise).
func (p *PMN) assertedMask() []bool {
	out := make([]bool, len(p.probs))
	for _, a := range p.feedback.History() {
		out[a.Cand] = true
	}
	return out
}

// condEntropyPiece computes the piece-local part of H(C | c, P) of
// Equation 4 — the expected uncertainty of c's piece after the expert
// asserts c — from one batched columnar count pass over the piece's
// store (Store.CoCountsInto): the piece's sample set is partitioned on
// membership of c, exactly the update view maintenance would perform
// for either answer. Candidates outside the piece (other pieces, other
// components) are independent of c, so their entropy terms are
// unchanged by the conditioning and never enter this pass — the
// factorization that makes the ranking O(piece²) instead of O(network²)
// per candidate.
func (p *PMN) condEntropyPiece(u *piece, c int, s *igScratch) float64 {
	pc := p.probs[c]
	st := u.store
	m := st.TrackedCount()
	nWith, nWithout := st.CoCountsInto(c, s.with, s.without)
	hPlus := p.partitionEntropyOf(u, s.with[:m], nWith, s)
	hMinus := p.partitionEntropyOf(u, s.without[:m], nWithout, s)
	return pc*hPlus + (1-pc)*hMinus
}

// partitionEntropyOf computes H over one sub-population of a piece's
// samples from its per-candidate membership counts (column-indexed).
// Within one partition the per-candidate entropy depends only on the
// count k ∈ [0, total], so values are memoized in the scratch table:
// co-occurrence counts repeat heavily and log2 dominates the pass
// otherwise.
func (p *PMN) partitionEntropyOf(u *piece, counts []int, total int, s *igScratch) float64 {
	if total == 0 {
		return 0
	}
	// A piece with few members probes at most that many distinct counts:
	// resetting a memo table of total+1 entries would cost more than the
	// log2 calls it saves, so small pieces compute directly.
	memo := len(counts) > 64
	var tab []float64
	if memo {
		if cap(s.tab) < total+1 {
			s.tab = make([]float64, total+1)
		}
		tab = s.tab[:total+1]
		for i := range tab {
			tab[i] = -1
		}
	}
	h := 0.0
	for j, cnt := range counts {
		if s.asserted[u.members[j]] {
			continue // asserted candidates stay certain in P±
		}
		if !memo {
			h += BinaryEntropy(float64(cnt) / float64(total))
			continue
		}
		e := tab[cnt]
		if e < 0 {
			e = BinaryEntropy(float64(cnt) / float64(total))
			tab[cnt] = e
		}
		h += e
	}
	return h
}

// partitionEntropySubset is partitionEntropyOf restricted to a
// pre-filtered subset of columns: the caller (the lazy top-k
// evaluator) has already excluded asserted and certain members, so no
// per-term mask probe or member dereference is needed. Every excluded
// term is exactly 0.0 — asserted members are skipped by
// partitionEntropyOf too, and a certain member's count is exactly 0 or
// total in either sub-population, where BinaryEntropy returns 0.0 —
// and x + 0.0 == x in IEEE arithmetic, so with counts listed in the
// same (ascending-column) order the sum is bit-identical to the full
// pass over the component.
// The terms come from the persistent binEntAt memo rather than the
// per-pass table: subset partitions are small (the uncertain set), so
// a per-call table reset would dominate, while the (cnt, total) pairs
// repeat across candidates and steps.
func (p *PMN) partitionEntropySubset(counts []int, total int, s *igScratch) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, cnt := range counts {
		h += s.binEntAt(cnt, total)
	}
	return h
}

// ConditionalEntropy returns H(C | c, P) of Equation 4: the piece-local
// conditional term plus the unchanged entropy of everything outside c's
// piece.
func (p *PMN) ConditionalEntropy(c int) float64 {
	pc := p.probs[c]
	u := p.comps[p.compOf[c]].pieceFor(c)
	if pc <= 0 || pc >= 1 || u == nil {
		// Certain candidates: the assertion outcome is already known and
		// changes nothing.
		return p.Entropy()
	}
	rest := p.Entropy() - u.entropy
	return rest + p.condEntropyPiece(u, c, p.newScratch(p.assertedMask()))
}

// InformationGain returns IG(c) of Equation 5: the expected uncertainty
// reduction from asserting c. It is zero for certain candidates.
// Because conditioning on c leaves everything outside c's piece
// untouched, the gain reduces to the piece-local difference
// H_U − H_U(·|c).
func (p *PMN) InformationGain(c int) float64 {
	pc := p.probs[c]
	u := p.comps[p.compOf[c]].pieceFor(c)
	if pc <= 0 || pc >= 1 || u == nil {
		return 0
	}
	ig := u.entropy - p.condEntropyPiece(u, c, p.newScratch(p.assertedMask()))
	if ig < 0 {
		// Sampling noise can produce slightly negative estimates; clamp
		// so ordering degenerates gracefully to "no expected gain".
		return 0
	}
	return ig
}

// igChunk is how many uncertain candidates a ranking worker claims per
// atomic fetch-add; the per-candidate cost is uniform (one columnar
// count pass), so small chunks balance well without contention.
const igChunk = 8

// InformationGains returns IG(c) for every candidate: one full,
// uncached pass over every uncertain candidate, sharded across
// Config.Workers goroutines (default GOMAXPROCS). It is the exhaustive
// reference for the lazy top-k ranker (TopGainTies), which serves
// Suggest; it reads the stores and the probability vector and touches
// no ranker state, so calling it never changes what TopGains returns
// or how it gets there. The per-candidate computations read only the
// owning piece's columnar matrix, so workers never contend.
func (p *PMN) InformationGains() []float64 {
	out := make([]float64, len(p.probs))
	var pending []int
	for c, pc := range p.probs {
		if pc > 0 && pc < 1 {
			pending = append(pending, c)
		}
	}
	if len(pending) == 0 {
		return out
	}

	workers := p.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (len(pending) + igChunk - 1) / igChunk; workers > max {
		workers = max
	}

	asserted := p.assertedMask()
	rank := func(s *igScratch, c int) {
		u := p.comps[p.compOf[c]].pieceFor(c)
		if u == nil {
			return
		}
		if ig := u.entropy - p.condEntropyPiece(u, c, s); ig > 0 {
			out[c] = ig
		}
	}
	if workers <= 1 {
		s := p.newScratch(asserted)
		for _, c := range pending {
			rank(s, c)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := p.newScratch(asserted)
			for {
				lo := int(next.Add(igChunk)) - igChunk
				if lo >= len(pending) {
					return
				}
				hi := lo + igChunk
				if hi > len(pending) {
					hi = len(pending)
				}
				for _, c := range pending[lo:hi] {
					rank(s, c)
				}
			}
		}()
	}
	wg.Wait()
	return out
}
