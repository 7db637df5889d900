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
	ds := topkTestDataset(t, seed)
	cfg := DefaultConfig()
	cfg.Samples = 200
	if mutate != nil {
		mutate(&cfg)
	}
	pruned = MustNew(constraints.Default(ds.Network), cfg, rand.New(rand.NewSource(seed+1)))
	exhaustive = MustNew(constraints.Default(ds.Network), cfg, rand.New(rand.NewSource(seed+1)))
	return pruned, exhaustive, ds
}

// topkTestDataset is the small multicomp network the ranking tests
// share.
func topkTestDataset(t testing.TB, seed int64) *schema.Dataset {
	t.Helper()
	d, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
		TargetCount: 160, Precision: 0.67, ConflictBias: 0.3, StrictCount: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return d
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
			// component and cached tie sets on the rest.
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

// TestTopGainsStreamingPath lowers topkMatrixCap so every component
// takes the streaming path (full evaluation above the cap, sharded
// across workers) and checks at every step of an assertion trajectory
// that the serial and the 4-worker passes both return exactly the
// exhaustive oracle's tie set and gain, and exactly what a PMN at the
// default cap (the co-count matrix path) returns on the same
// trajectory. The dense fixture's single component spans many
// topkBlock blocks, so a dropped block or a skewed worker stride shows.
func TestTopGainsStreamingPath(t *testing.T) {
	defaultCap := topkMatrixCap
	defer func() { topkMatrixCap = defaultCap }()

	dense := func(seed int64) *schema.Dataset {
		d, err := datagen.SyntheticNetwork(datagen.Profile{
			Name: "streaming", Domain: datagen.BusinessPartner(),
			NumSchemas: 4, MinAttrs: 10, MaxAttrs: 14, PoolFactor: 1.3,
			SynonymProb: 0.2, AbbrevProb: 0.15, EdgeProb: 1,
		}, datagen.SyntheticOpts{
			TargetCount: 96, Precision: 0.6, ConflictBias: 0.7, StrictCount: true,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	multicomp := func(seed int64) *schema.Dataset { return topkTestDataset(t, seed) }
	for _, fx := range []struct {
		name  string
		build func(int64) *schema.Dataset
		seed  int64
	}{{"dense", dense, 17}, {"dense", dense, 29}, {"multicomp", multicomp, 5}} {
		d := fx.build(fx.seed)
		e := constraints.Default(d.Network)
		pmn := func(workers int) *PMN {
			cfg := DefaultConfig()
			cfg.Samples = 200
			cfg.Workers = workers
			return MustNew(e, cfg, rand.New(rand.NewSource(fx.seed+1)))
		}
		serial, par, matrix, ex := pmn(1), pmn(4), pmn(1), pmn(1)
		multiBlock := false
		for step := 0; ; step++ {
			topkMatrixCap = 0
			sTies, sBest := serial.TopGainTies()
			pTies, pBest := par.TopGainTies()
			topkMatrixCap = defaultCap
			mTies, mBest := matrix.TopGainTies()
			wantTies, wantBest := exhaustiveTies(ex)
			for _, got := range []struct {
				path string
				ties []int
				best float64
			}{{"streaming/workers=1", sTies, sBest}, {"streaming/workers=4", pTies, pBest}, {"matrix", mTies, mBest}} {
				if got.best != wantBest || !sameTies(got.ties, wantTies) {
					t.Fatalf("%s seed %d step %d: %s (ties=%v gain=%v) != exhaustive (ties=%v gain=%v)",
						fx.name, fx.seed, step, got.path, got.ties, got.best, wantTies, wantBest)
				}
			}
			for _, cp := range serial.comps {
				if ts := cp.topScratch; ts != nil && len(ts.cand) > 2*topkBlock {
					multiBlock = true
				}
			}
			if len(wantTies) == 0 {
				break
			}
			c := wantTies[step%len(wantTies)]
			approve := d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))
			for _, p := range []*PMN{serial, par, matrix, ex} {
				if err := p.Assert(c, approve); err != nil {
					t.Fatal(err)
				}
			}
		}
		if fx.name == "dense" && !multiBlock {
			t.Fatalf("%s seed %d: no streaming pass spanned more than two blocks; the fixture no longer exercises block boundaries", fx.name, fx.seed)
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
