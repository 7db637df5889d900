// Package instantiate implements §V of the paper: deriving a single
// trusted matching (an approximation of the selective matching) from a
// probabilistic matching network at any time. The instantiation problem
// — minimal repair distance Δ(I, C), then maximal likelihood u(I) — is
// NP-complete (Theorem 1), so the package provides both the two-step
// meta-heuristic of Algorithm 2 (greedy pickup among samples, then
// randomized local search with roulette-wheel selection and a tabu
// queue) and an exact solver for small networks used to validate it.
package instantiate

import (
	"math"
	"math/rand"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/sampling"
)

// Config parameterizes Algorithm 2.
type Config struct {
	// Iterations is the local-search bound k.
	Iterations int
	// TabuSize is the fixed size of the tabu queue; 0 disables tabu
	// (an ablation switch).
	TabuSize int
	// UseLikelihood enables the maximal-likelihood tie-break between
	// instances of equal repair distance (§V-A condition ii; Figure 11
	// compares instantiation with and without it).
	UseLikelihood bool
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() Config {
	return Config{Iterations: 200, TabuSize: 7, UseLikelihood: true}
}

// logLikelihood computes log u(I) = Σ_{c∈I} log p_c, clamping zero
// probabilities (a sampled instance never contains a certainly-absent
// correspondence, but local-search instances can).
func logLikelihood(inst *bitset.Set, probs []float64) float64 {
	const floor = 1e-12
	ll := 0.0
	inst.ForEach(func(c int) bool {
		p := probs[c]
		if p < floor {
			p = floor
		}
		ll += math.Log(p)
		return true
	})
	return ll
}

// better reports whether candidate instance b beats incumbent a under
// the lexicographic objective: smaller repair distance first, then —
// when likelihood is enabled — larger likelihood.
func better(a, b *bitset.Set, full *bitset.Set, probs []float64, useLikelihood bool) bool {
	da, db := a.SymmetricDiffCount(full), b.SymmetricDiffCount(full)
	if db != da {
		return db < da
	}
	if !useLikelihood {
		return false
	}
	return logLikelihood(b, probs) > logLikelihood(a, probs)
}

// rouletteWheel picks one candidate with probability proportional to its
// probability estimate (fitness-proportionate selection). When all
// weights are zero it falls back to uniform choice. Returns -1 for an
// empty pool.
func rouletteWheel(pool []int, probs []float64, rng *rand.Rand) int {
	if len(pool) == 0 {
		return -1
	}
	total := 0.0
	for _, c := range pool {
		total += probs[c]
	}
	if total <= 0 {
		return pool[rng.Intn(len(pool))]
	}
	r := rng.Float64() * total
	for _, c := range pool {
		r -= probs[c]
		if r <= 0 {
			return c
		}
	}
	return pool[len(pool)-1]
}

// tabuQueue is the fixed-size forbidden list of Algorithm 2. Membership
// is a bitset so the local search can subtract the whole queue from its
// candidate pool with one word-wise pass.
type tabuQueue struct {
	items []int
	set   *bitset.Set
	size  int
}

func newTabuQueue(size, n int) *tabuQueue {
	return &tabuQueue{set: bitset.New(n), size: size}
}

func (q *tabuQueue) add(c int) {
	if q.size <= 0 {
		return
	}
	if q.set.Has(c) {
		return
	}
	q.items = append(q.items, c)
	q.set.Add(c)
	if len(q.items) > q.size {
		old := q.items[0]
		q.items = q.items[1:]
		q.set.Remove(old)
	}
}

func (q *tabuQueue) has(c int) bool { return q.set.Has(c) }

// Heuristic runs Algorithm 2 and returns the best matching instance
// found: consistent, respecting the feedback, with near-minimal repair
// distance and near-maximal likelihood. probs are the current
// correspondence probabilities; approved/disapproved may be nil.
func Heuristic(e *constraints.Engine, store *sampling.Store, probs []float64,
	approved, disapproved *bitset.Set, cfg Config, rng *rand.Rand) *bitset.Set {
	return heuristicWithin(e, store, probs, approved, disapproved, nil, cfg, rng)
}

// HeuristicDecomposed runs Algorithm 2 independently on every
// independent unit of the instance space and unions the per-unit
// winners. stores[k] holds unit k's samples and masks[k] the candidates
// it searches. A unit is a constraint-connected component, or one live
// piece of one with the approved set in its mask: a store may
// track only the piece, and its instances are seeded with approved ∩
// mask before the search. A nil store marks a unit whose mask is its
// only instance (the approved set plus the members no violation can
// reach); it is taken as is, without a search. Both the
// repair distance Δ(I, C) and the likelihood u(I) are sums/products
// over units, so the union of per-unit optima is a global optimum of
// the same objective — searching each unit's much smaller instance
// space instead of the product space. The search budget
// (cfg.Iterations) is scaled down per unit (a unit of m candidates
// saturates in O(m) moves), so total work does not multiply with the
// unit count.
func HeuristicDecomposed(e *constraints.Engine, stores []*sampling.Store, masks []*bitset.Set,
	probs []float64, approved, disapproved *bitset.Set, cfg Config, rng *rand.Rand) *bitset.Set {

	out := e.NewInstance()
	for k, store := range stores {
		if store == nil {
			out.UnionWith(masks[k])
			continue
		}
		subCfg := cfg
		m := store.TrackedCount()
		if subCfg.Iterations > 4*m+16 {
			subCfg.Iterations = 4*m + 16
		}
		sub := heuristicWithin(e, store, probs, approved, disapproved, masks[k], subCfg, rng)
		out.UnionWith(sub)
	}
	return out
}

// heuristicWithin is Algorithm 2 restricted to the candidates of
// `within` (nil = whole universe): the greedy pickup reads the
// component's store, the local search only proposes component
// candidates, repairs protect approved ∩ within, and saturation
// excludes everything outside the component. The repair-distance
// reference is the component's candidate set.
func heuristicWithin(e *constraints.Engine, store *sampling.Store, probs []float64,
	approved, disapproved *bitset.Set, within *bitset.Set, cfg Config, rng *rand.Rand) *bitset.Set {

	n := e.Network().NumCandidates()
	full := within
	if full == nil {
		full = e.FullInstance()
	}
	// apr = F+ ∩ within seeds and protects; excluded = ¬within ∪ F−
	// bounds repairs and saturation.
	apr, excluded := sampling.FeedbackWithin(n, approved, disapproved, within, nil, nil)
	var members []int
	if within != nil {
		// A component store already caches its member list; fall back to
		// deriving it from the mask for store-less callers.
		if store != nil {
			members = store.TrackedMembers()
		}
		if members == nil {
			members = within.Members()
		}
	}

	// Step 1: greedy pickup among the sampled instances — minimal repair
	// distance, tie-broken by likelihood.
	var best *bitset.Set
	if store != nil {
		store.ForEachInstance(func(inst *bitset.Set) bool {
			if best == nil || better(best, inst, full, probs, cfg.UseLikelihood) {
				best = inst
			}
			return true
		})
	}
	if best == nil {
		// No samples available: start from the approved set, saturated.
		seed := e.NewInstance()
		if apr != nil {
			seed.UnionWith(apr)
		}
		e.MaximizeWithin(seed, excluded, members, rng)
		best = seed
	}
	best = best.Clone()
	if apr != nil {
		// A piece's store holds projections onto the piece: the approved
		// candidates come back here.
		best.UnionWith(apr)
	}

	// Step 2: randomized local search with tabu. The pool within \ I \
	// F− \ tabu is built as a mask (word-wise set subtraction) and
	// expanded in ascending order.
	cur := best.Clone()
	tabu := newTabuQueue(cfg.TabuSize, n)
	pool := make([]int, 0, n)
	free := bitset.New(n)
	removed := bitset.New(n)
	for i := 0; i < cfg.Iterations; i++ {
		if within != nil {
			free.CopyFrom(within)
		} else {
			free.SetAll()
		}
		free.DifferenceWith(cur)
		free.DifferenceWith(tabu.set)
		if excluded != nil {
			free.DifferenceWith(excluded)
		}
		pool = pool[:0]
		free.ForEach(func(c int) bool {
			pool = append(pool, c)
			return true
		})
		c := rouletteWheel(pool, probs, rng)
		if c < 0 {
			break
		}
		tabu.add(c)
		// cur is maximal (a stored instance or a saturated seed, then
		// each step's output), so only what the repair removed can have
		// unblocked anything.
		removed.CopyFrom(cur)
		e.Repair(cur, c, apr)
		removed.DifferenceWith(cur)
		e.Resaturate(cur, excluded, removed, members, rng)
		if better(best, cur, full, probs, cfg.UseLikelihood) {
			best.CopyFrom(cur)
		}
	}
	return best
}
