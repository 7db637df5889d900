package core

import (
	"math/rand"
	"testing"

	"schemanet/internal/constraints"
	"schemanet/internal/datagen"
	"schemanet/internal/schema"
)

// topkTestPMNs builds two identical PMNs over the same synthetic
// network with identical seeds — one ranked through the lazy
// bound-pruned path, one through the exhaustive InformationGains scan
// (exhaustiveTies) — so any divergence between them is a pruning bug,
// not noise.
func topkTestPMNs(t testing.TB, seed int64, mutate func(*Config)) (pruned, exhaustive *PMN, d *schema.Dataset) {
	t.Helper()
	ds, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
		TargetCount: 160, Precision: 0.67, ConflictBias: 0.3, StrictCount: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Samples = 200
	if mutate != nil {
		mutate(&cfg)
	}
	pruned = MustNew(constraints.Default(ds.Network), cfg, rand.New(rand.NewSource(seed+1)))
	exhaustive = MustNew(constraints.Default(ds.Network), cfg, rand.New(rand.NewSource(seed+1)))
	return pruned, exhaustive, ds
}

// exhaustiveTies is the exhaustive ranking oracle: the maximal gain
// over the uncertain unasserted candidates and its full ascending tie
// set, straight from the exhaustive gain vector.
func exhaustiveTies(p *PMN) ([]int, float64) {
	gains := p.InformationGains()
	best := -1.0
	var ties []int
	for _, c := range uncertainUnasserted(p) {
		switch g := gains[c]; {
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

func sameTies(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTopGainTiesMatchesExhaustive drives identical assertion schedules
// through a pruned and an exhaustive PMN and checks after every step
// that the lazy evaluator returns bit-identical tie sets and gains —
// the tentpole's exactness guarantee at the core layer. At the end the
// pruned PMN's on-demand full gain vector must also match bitwise.
func TestTopGainTiesMatchesExhaustive(t *testing.T) {
	for _, seed := range []int64{3, 11, 27} {
		pr, ex, d := topkTestPMNs(t, seed, nil)
		schedRng := rand.New(rand.NewSource(seed * 7))
		for step := 0; ; step++ {
			gotTies, gotBest := pr.TopGainTies()
			wantTies, wantBest := exhaustiveTies(ex)
			if gotBest != wantBest || !sameTies(gotTies, wantTies) {
				t.Fatalf("seed %d step %d: pruned (ties=%v gain=%v) != exhaustive (ties=%v gain=%v)",
					seed, step, gotTies, gotBest, wantTies, wantBest)
			}
			if len(wantTies) == 0 {
				break
			}
			// Assert a tie member (sometimes the head, sometimes a random
			// one) so the schedule exercises re-ranking of the hot
			// component and drift-bound reuse on the rest.
			c := wantTies[schedRng.Intn(len(wantTies))]
			approve := d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))
			if err := pr.Assert(c, approve); err != nil {
				t.Fatal(err)
			}
			if err := ex.Assert(c, approve); err != nil {
				t.Fatal(err)
			}
		}
		prGains, exGains := pr.InformationGains(), ex.InformationGains()
		for c := range exGains {
			if prGains[c] != exGains[c] {
				t.Fatalf("seed %d: final gain vector diverges at %d: %v != %v",
					seed, c, prGains[c], exGains[c])
			}
		}
	}
}

// TestTopGainsSerialParallelIdentical lowers the parallel threshold so
// even small components shard across workers and checks the sharded
// evaluation returns exactly the serial block kernel's results —
// per-candidate arithmetic must not depend on worker count or
// schedule.
func TestTopGainsSerialParallelIdentical(t *testing.T) {
	oldMin := rankParallelMin
	rankParallelMin = 2
	defer func() { rankParallelMin = oldMin }()

	serial, _, d := topkTestPMNs(t, 5, func(c *Config) { c.Workers = 1 })
	par, _, _ := topkTestPMNs(t, 5, func(c *Config) { c.Workers = 4 })
	for step := 0; step < 64; step++ {
		sTies, sBest := serial.TopGainTies()
		pTies, pBest := par.TopGainTies()
		if sBest != pBest || !sameTies(sTies, pTies) {
			t.Fatalf("step %d: serial (ties=%v gain=%v) != parallel (ties=%v gain=%v)",
				step, sTies, sBest, pTies, pBest)
		}
		if len(sTies) == 0 {
			break
		}
		c := sTies[0]
		approve := d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))
		if err := serial.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
		if err := par.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaBoundSound checks the chained drift bound the lazy evaluator
// prunes with: whenever a member holds a valid evaluation record, its
// current exhaustive gain must not exceed the recorded gain plus the
// accumulated drift (beyond the strict pruning margin) — otherwise a
// bound-pruned candidate could secretly hold the maximum.
func TestDeltaBoundSound(t *testing.T) {
	pr, ex, d := topkTestPMNs(t, 13, nil)
	for step := 0; step < 80; step++ {
		ties, _ := pr.TopGainTies()
		if len(ties) == 0 {
			break
		}
		exGains := ex.InformationGains()
		for k, cp := range pr.comps {
			if cp.evalGain == nil {
				continue
			}
			check := func(j, c int) {
				db, ok := cp.deltaBound(j)
				if !ok {
					return
				}
				if pc := pr.probs[c]; pc <= 0 || pc >= 1 || cp.isAsserted(c) {
					return
				}
				if g := exGains[c]; g > db+PruneMargin(g) {
					t.Fatalf("step %d comp %d cand %d: gain %v exceeds delta bound %v",
						step, k, c, g, db)
				}
			}
			if cp.members == nil {
				for c := range pr.probs {
					check(c, c)
				}
			} else {
				for j, c := range cp.members {
					check(j, c)
				}
			}
		}
		c := ties[0]
		approve := d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))
		if err := pr.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
		if err := ex.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
	}
}

// exhaustiveStrategy is InfoGainStrategy on the exhaustive oracle: the
// uniform tie-break draw over exhaustiveTies, with the same fallback.
type exhaustiveStrategy struct{}

func (exhaustiveStrategy) Name() string { return "info-gain-exhaustive" }

func (exhaustiveStrategy) Next(p *PMN, rng *rand.Rand) (int, bool) {
	ties, _ := exhaustiveTies(p)
	if len(ties) == 0 {
		return fallback(p, rng)
	}
	return ties[rng.Intn(len(ties))], true
}

// TestInfoGainStrategyPrunedTrajectory runs the full strategy (with its
// tie-break rng) against the exhaustive oracle strategy and demands
// identical suggestion sequences — the rng draw counts must line up
// exactly, not just the winners.
func TestInfoGainStrategyPrunedTrajectory(t *testing.T) {
	pr, ex, d := topkTestPMNs(t, 17, nil)
	prRng := rand.New(rand.NewSource(99))
	exRng := rand.New(rand.NewSource(99))
	var strat, oracle Strategy = InfoGainStrategy{}, exhaustiveStrategy{}
	for step := 0; step < 200; step++ {
		pc, pok := strat.Next(pr, prRng)
		ec, eok := oracle.Next(ex, exRng)
		if pc != ec || pok != eok {
			t.Fatalf("step %d: pruned suggests (%d,%v), exhaustive (%d,%v)", step, pc, pok, ec, eok)
		}
		if !pok {
			break
		}
		approve := d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(pc))
		if err := pr.Assert(pc, approve); err != nil {
			t.Fatal(err)
		}
		if err := ex.Assert(pc, approve); err != nil {
			t.Fatal(err)
		}
	}
}
