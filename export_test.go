package schemanet

import (
	"io"
)

// Test-only reference surfaces. Production builds every session on the
// compiled conflict index, decomposes it into constraint-connected
// components, and ranks suggestions through the lazy top-k evaluator;
// the oracles below are what the differential tests hold those paths
// to.

// NewMonolithicSession builds a session on a Whole fork of the compiled
// engine: its partition is the trivial one-component partition, so the
// PMN keeps one global sample space — the monolithic reference for the
// component decomposition. The engine is compiled for this session
// alone, bypassing the network's shared compiled base, so the session
// owns it from the start and never unshares (which would recompile
// without Whole).
func NewMonolithicSession(net *Network, opts *Options) (*Session, error) {
	s, err := newSession(net, opts, nil, func(net *Network, c constraintOpts) *compiledBase {
		b := newBase(net, c)
		b.engine = b.engine.Whole()
		return b
	})
	if err != nil {
		return nil, err
	}
	s.names, s.base = s.base.nameIndex(), nil
	return s, nil
}

// ExhaustiveTies is the exhaustive ranking oracle: one full
// InformationGains pass, then an argmax scan over the uncertain,
// unasserted, live candidates in ascending order. It returns the
// maximal-gain tie set and its gain, or (nil, -1) when no uncertain
// unasserted candidate remains. The pass touches no ranker state.
func ExhaustiveTies(s *Session) ([]int, float64) {
	gains := s.pmn.InformationGains()
	fb, net := s.pmn.Feedback(), s.Network()
	best := -1.0
	var ties []int
	for c, g := range gains {
		if pc := s.pmn.Probability(c); pc <= 0 || pc >= 1 || fb.IsAsserted(c) || net.Retired(c) {
			continue
		}
		switch {
		case g > best:
			best = g
			ties = append(ties[:0], c)
		case g == best:
			ties = append(ties, c)
		}
	}
	if best < 0 {
		return nil, -1
	}
	return ties, best
}

// PrunedTies returns the lazy bound-pruned ranker's tie set and gain —
// the set Suggest draws from. It consumes no rng state, so calling it
// before Suggest leaves the suggestion unchanged.
func PrunedTies(s *Session) ([]int, float64) { return s.pmn.TopGainTies() }

// InformationGains returns every candidate's information gain under the
// session's current estimates (one full pass; asserted and certain
// candidates read 0). The sampled ≈ exact harness scores a sampled
// session's pick by its gain on an exact twin.
func InformationGains(s *Session) []float64 { return s.pmn.InformationGains() }

// LoadSessionByFiltering is the restore LoadSession used before the
// leading history was folded into construction, kept as the oracle of
// TestRestoreUnderFeedback: NewSession fills every component from the
// unconditioned network, then the whole saved stream — its leading
// assertions included — is batch-applied, filtering that fill and
// refilling what fell below n_min.
func LoadSessionByFiltering(net *Network, opts *Options, r io.Reader) (*Session, error) {
	log, _, err := decodeSession(r)
	if err != nil {
		return nil, err
	}
	s, err := NewSession(net, opts)
	if err != nil {
		return nil, err
	}
	if err := s.replayOps(log, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// Resamples returns the session's post-construction refill rounds.
func Resamples(s *Session) int { return s.pmn.Resamples() }

// SameComponentStore reports whether component k of a and b is served
// by the same stores holding the same instances in the same order under
// the same completeness flags.
func SameComponentStore(a, b *Session, k int) bool {
	xs, ys := a.pmn.UnitStores(k), b.pmn.UnitStores(k)
	if len(xs) != len(ys) {
		return false
	}
	for u, x := range xs {
		y := ys[u]
		if x.Size() != y.Size() || x.Complete() != y.Complete() {
			return false
		}
		for i := 0; i < x.Size(); i++ {
			if !x.Instance(i).Equal(y.Instance(i)) {
				return false
			}
		}
	}
	return true
}

// PieceCounts reports component k's live pieces and how many of them
// are served exactly (core.PMN.PieceCounts).
func PieceCounts(s *Session, k int) (pieces, exact int) { return s.pmn.PieceCounts(k) }
