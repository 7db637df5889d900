package core

import (
	"math/rand"

	"schemanet/internal/schema"
)

// Oracle answers assertion requests; the expert of the reconciliation
// process. Implementations live in internal/oracle (ground-truth, noisy,
// recording oracles).
type Oracle interface {
	// Assert reports whether the correspondence is correct.
	Assert(c schema.Correspondence) bool
}

// Goal is the reconciliation goal δ of Algorithm 1: it reports whether
// reconciliation should stop *before* the next assertion. step is the
// number of assertions made so far in this run.
type Goal func(p *PMN, step int) bool

// FullGoal never stops early; reconciliation runs until no uncertain
// candidate remains.
func FullGoal() Goal {
	return func(_ *PMN, _ int) bool { return false }
}

// StepInfo describes one completed feedback step for observers.
type StepInfo struct {
	Step     int // 1-based assertion counter within this run
	Cand     int
	Approved bool
	Entropy  float64 // network uncertainty after integrating the step
	Effort   float64 // |F+ ∪ F−| / |C| after the step
}

// Observer receives a notification after each integrated assertion;
// experiments use it to record uncertainty/precision curves.
type Observer func(StepInfo)

// Reconcile runs the generic uncertainty-reduction procedure of
// Algorithm 1: repeatedly select an uncertain correspondence with the
// strategy, elicit the oracle's assertion, and integrate it into the
// probabilistic matching network. It stops when the goal is reached or
// no uncertain candidate remains, and returns the number of assertions
// made.
func Reconcile(p *PMN, o Oracle, strat Strategy, goal Goal, rng *rand.Rand, obs Observer) int {
	steps := 0
	for !goal(p, steps) {
		c, ok := strat.Next(p, rng)
		if !ok {
			break
		}
		approve := o.Assert(p.Network().Candidate(c))
		if err := p.Assert(c, approve); err != nil {
			// The strategy returned an already-asserted candidate; this
			// would be a bug in the strategy, surface it loudly.
			panic(err)
		}
		steps++
		if obs != nil {
			obs(StepInfo{
				Step:     steps,
				Cand:     c,
				Approved: approve,
				Entropy:  p.Entropy(),
				Effort:   p.Feedback().Effort(),
			})
		}
	}
	return steps
}
