package core

// ComponentSnapshot is an immutable, self-contained copy of one
// component's served state: probabilities, the cached entropy term, the
// information-gain ranking, and the precomputed suggestion pools. The
// concurrent serving layer publishes one snapshot per component through
// an atomic pointer after each assertion, so reads (probability,
// uncertainty, suggestion) never take a component's write lock — they
// load the pointer and read frozen data (see DESIGN.md, "Concurrent
// serving").
//
// Probabilities are column-indexed (PMN.LocalIndex); the suggestion
// pools hold global candidate ids. The gain ranking is folded into the
// suggestion pools (best/bestGain) rather than copied wholesale —
// readers never consume per-candidate gains.
type ComponentSnapshot struct {
	probs   []float64
	entropy float64
	// best holds the uncertain, unasserted members with maximal
	// information gain (the component's tie set); bestGain is that gain.
	// best is empty when the component has no uncertain unasserted
	// member.
	best     []int
	bestGain float64
	// unasserted holds every member not yet asserted, certain or not —
	// the fallback pool once no uncertain candidate remains anywhere
	// (mirrors InfoGainStrategy's degradation to random).
	unasserted []int
	// ranked records whether best/bestGain were computed from a fresh
	// gain ranking (SnapshotComponentTop) or skipped entirely
	// (SnapshotComponentProbs). Carrying the flag on the snapshot makes
	// flag and data change hands in one atomic pointer swap — a
	// publisher cannot expose a probs-only snapshot that readers mistake
	// for a ranked one.
	ranked bool
}

// Entropy returns the component's cached uncertainty term H_k.
func (s *ComponentSnapshot) Entropy() float64 { return s.entropy }

// ProbabilityAt returns the probability of the member at column j
// (PMN.LocalIndex of a member candidate).
func (s *ComponentSnapshot) ProbabilityAt(j int) float64 { return s.probs[j] }

// Best returns the component's maximal-gain tie set (global candidate
// ids, ascending) and its gain. The slice must not be mutated.
func (s *ComponentSnapshot) Best() ([]int, float64) { return s.best, s.bestGain }

// Unasserted returns the component's unasserted members (global
// candidate ids, ascending). The slice must not be mutated.
func (s *ComponentSnapshot) Unasserted() []int { return s.unasserted }

// Ranked reports whether the snapshot carries a valid gain ranking
// (Best is meaningful). Probs-only snapshots report false; suggestion
// readers must re-rank before consuming Best.
func (s *ComponentSnapshot) Ranked() bool { return s.ranked }

// SnapshotComponentProbs builds a probabilities/entropy/unasserted-only
// snapshot of component k, skipping the gain re-rank entirely — the
// cheap publication a write path uses to keep probability and
// uncertainty reads fresh while deferring ranking work to the next
// suggestion (see ConcurrentSession). Its Best reports an empty tie
// set and Ranked reports false. Like ApplyAssertions, it reads only
// component-local state (plus the component's entries of the
// probability vector), so calls for different components may run
// concurrently; calls for the same component must be serialized with
// that component's maintenance.
func (p *PMN) SnapshotComponentProbs(k int) *ComponentSnapshot {
	return p.snapshot(k)
}

// SnapshotComponentTop builds a ranked snapshot of component k through
// the lazy bound-pruned top-k evaluator (TopGains): Best carries the
// exact exhaustive tie set, though members whose gain bound was
// dominated were never evaluated. Serialization requirements are those
// of SnapshotComponentProbs.
func (p *PMN) SnapshotComponentTop(k int) *ComponentSnapshot {
	ties, gain := p.TopGains(k)
	snap := p.snapshot(k)
	snap.ranked = true
	snap.bestGain = gain
	if len(ties) > 0 {
		// Copy: the component's cached tie slice is rewritten by the next
		// re-rank, while the snapshot must stay frozen.
		snap.best = append([]int(nil), ties...)
	}
	return snap
}

func (p *PMN) snapshot(k int) *ComponentSnapshot {
	cp := p.comps[k]
	net := p.Network()
	snap := &ComponentSnapshot{
		probs:   make([]float64, len(cp.members)),
		entropy: cp.entropy, bestGain: -1,
	}
	for j, c := range cp.members {
		snap.probs[j] = p.probs[c]
		if !cp.isAsserted(c) && !net.Retired(c) {
			snap.unasserted = append(snap.unasserted, c)
		}
	}
	return snap
}
