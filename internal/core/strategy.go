package core

import "math/rand"

// Strategy implements the select routine of Algorithm 1: given the
// current probabilistic matching network, it picks the next candidate
// for expert assertion. ok is false when no unasserted candidate
// remains.
//
// The Random baseline models an expert working *without* tool support
// (§VI-C): it cannot know which correspondences are still uncertain, so
// it draws uniformly from everything not yet asserted — including
// correspondences whose probability is already 0 or 1, where the
// assertion changes nothing. The guided strategies spend their budget on
// uncertain candidates first and only then fall back to the rest, which
// is exactly the effort saving the paper measures.
type Strategy interface {
	Name() string
	Next(p *PMN, rng *rand.Rand) (c int, ok bool)
}

// unasserted returns all candidates outside F+ ∪ F−, excluding retired
// candidates (they accept no feedback, so suggesting one would strand
// the expert loop on ErrCandidateRetired).
func unasserted(p *PMN) []int {
	net := p.Network()
	n := net.NumCandidates()
	out := make([]int, 0, n)
	for c := 0; c < n; c++ {
		if !p.Feedback().IsAsserted(c) && !net.Retired(c) {
			out = append(out, c)
		}
	}
	return out
}

// uncertainUnasserted returns the unasserted candidates with
// 0 < p_c < 1 (the only ones whose assertion can reduce uncertainty).
func uncertainUnasserted(p *PMN) []int {
	var out []int
	for _, c := range unasserted(p) {
		if pc := p.Probability(c); pc > 0 && pc < 1 {
			out = append(out, c)
		}
	}
	return out
}

// fallback draws uniformly from the unasserted candidates.
func fallback(p *PMN, rng *rand.Rand) (int, bool) {
	u := unasserted(p)
	if len(u) == 0 {
		return 0, false
	}
	return u[rng.Intn(len(u))], true
}

// RandomStrategy selects uniformly among all unasserted candidates — the
// no-tool baseline of §VI-C.
type RandomStrategy struct{}

// Name implements Strategy.
func (RandomStrategy) Name() string { return "random" }

// Next implements Strategy.
func (RandomStrategy) Next(p *PMN, rng *rand.Rand) (int, bool) {
	return fallback(p, rng)
}

// InfoGainStrategy selects the uncertain candidate with maximal
// information gain (§IV-D), breaking ties uniformly at random as the
// paper prescribes. Once no uncertain candidate remains it degrades to
// random among the unasserted rest (all gains are zero).
type InfoGainStrategy struct{}

// Name implements Strategy.
func (InfoGainStrategy) Name() string { return "info-gain" }

// Next implements Strategy.
func (InfoGainStrategy) Next(p *PMN, rng *rand.Rand) (int, bool) {
	// Lazy bound-pruned ranking: TopGainTies returns exactly the tie set
	// an exhaustive argmax scan over InformationGains would collect (same
	// ascending order), so the single uniform draw consumes the same rng
	// state.
	ties, _ := p.TopGainTies()
	if len(ties) == 0 {
		return fallback(p, rng)
	}
	return ties[rng.Intn(len(ties))], true
}

// LeastCertainStrategy selects the unasserted candidate whose
// probability is closest to ½ — the classical active-learning baseline.
// Not in the paper; an ablation showing that information gain exploits
// constraint structure beyond marginal uncertainty.
type LeastCertainStrategy struct{}

// Name implements Strategy.
func (LeastCertainStrategy) Name() string { return "least-certain" }

// Next implements Strategy.
func (LeastCertainStrategy) Next(p *PMN, rng *rand.Rand) (int, bool) {
	u := uncertainUnasserted(p)
	if len(u) == 0 {
		return fallback(p, rng)
	}
	best := 2.0
	var ties []int
	for _, c := range u {
		d := p.Probability(c) - 0.5
		if d < 0 {
			d = -d
		}
		switch {
		case d < best:
			best = d
			ties = ties[:0]
			ties = append(ties, c)
		case d == best:
			ties = append(ties, c)
		}
	}
	return ties[rng.Intn(len(ties))], true
}

// ByConfidenceStrategy asserts unasserted candidates in descending
// matcher confidence — a naive expert reviewing the matcher output
// top-down. Another non-paper baseline for the ablation benches.
type ByConfidenceStrategy struct{}

// Name implements Strategy.
func (ByConfidenceStrategy) Name() string { return "by-confidence" }

// Next implements Strategy.
func (ByConfidenceStrategy) Next(p *PMN, rng *rand.Rand) (int, bool) {
	u := unasserted(p)
	if len(u) == 0 {
		return 0, false
	}
	net := p.Network()
	best, bestConf := -1, -1.0
	for _, c := range u {
		if conf := net.Candidate(c).Confidence; conf > bestConf {
			best, bestConf = c, conf
		}
	}
	return best, true
}
