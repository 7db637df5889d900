package core

// White-box tests for the refill budget: resolution of the Config knobs
// into a budgetPlan, and the survivor-reuse property — chunked,
// deficit-aware resampling must uphold exactly the store invariants a
// single-chunk round upholds (deduped instance set, feedback
// consistency, refilled-or-complete), while requesting fewer emissions.

import (
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/datagen"
)

func TestResolveBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want budgetPlan
	}{
		{"defaults", Config{Samples: 500},
			budgetPlan{min: DefaultMinSamples, max: 500, conv: DefaultConvergence}},
		{"min-only", Config{Samples: 500, MinSamples: 50},
			budgetPlan{min: 50, max: 500, conv: DefaultConvergence}},
		{"single-chunk", Config{Samples: 500, MinSamples: 500},
			budgetPlan{min: 500, max: 500, conv: DefaultConvergence}},
		{"min-above-cap", Config{Samples: 500, MinSamples: 800},
			budgetPlan{min: 500, max: 500, conv: DefaultConvergence}},
		{"cap-only", Config{Samples: 2000},
			budgetPlan{min: DefaultMinSamples, max: 2000, conv: DefaultConvergence}},
		{"cap-below-default-min", Config{Samples: 60},
			budgetPlan{min: 60, max: 60, conv: DefaultConvergence}},
		{"conv-only", Config{Samples: 500, Convergence: 0.05},
			budgetPlan{min: DefaultMinSamples, max: 500, conv: 0.05}},
		{"all-set", Config{Samples: 900, MinSamples: 40, Convergence: 0.02},
			budgetPlan{min: 40, max: 900, conv: 0.02}},
	} {
		if got := resolveBudget(tc.cfg); got != tc.want {
			t.Errorf("%s: resolveBudget = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// checkStoreInvariants verifies the §III-B view-maintenance contract on
// every unit store of component k: every held instance is distinct
// (fingerprint + Equal dedup), lies inside its unit, and together with
// F+ is a matching instance of the unit under the component's feedback
// (consistent, none of the disapproved, maximal over the unit's
// members), and no store is left in a needs-resample state after
// maintenance.
func checkStoreInvariants(t *testing.T, p *PMN, k int) {
	t.Helper()
	cp := p.comps[k]
	for _, u := range cp.pieces {
		st := u.store
		if st.NeedsResample() {
			t.Fatalf("component %d: a unit left below n_min and not complete after maintenance", k)
		}
		seen := map[uint64][]*bitset.Set{}
		st.ForEachInstance(func(inst *bitset.Set) bool {
			fp := inst.Fingerprint()
			for _, prev := range seen[fp] {
				if prev.Equal(inst) {
					t.Fatalf("component %d: duplicate instance in store", k)
				}
			}
			seen[fp] = append(seen[fp], inst)
			full := inst.Clone()
			full.UnionWith(cp.approved)
			if full.Intersects(cp.disapproved) {
				t.Fatalf("component %d: instance contains a disapproved candidate", k)
			}
			if !cp.engine.Consistent(full) || !cp.engine.MaximalWithin(full, cp.disapproved, u.members) {
				t.Fatalf("component %d: instance %v with F+ is not a maximal consistent set of its unit", k, inst)
			}
			return true
		})
	}
}

// TestAdaptiveRefillSurvivorReuse drives the same deterministic
// assertion schedule through a single-chunk PMN (MinSamples = Samples,
// one SampleWithin call per round) and a chunked one and
// checks, after every assertion, that both uphold the identical store
// invariants — and that the chunked run's surviving samples really are
// reused: the projection of every pre-assertion instance of the
// asserted piece that is consistent with the assertion is present in
// the piece it lands in afterwards, and the total emissions requested
// are strictly below the single-chunk run's.
func TestAdaptiveRefillSurvivorReuse(t *testing.T) {
	d, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
		TargetCount: 192, Precision: 0.67, ConflictBias: 0.3, StrictCount: true,
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	e := constraints.Default(d.Network)
	// Pinned to sampled inference so the store pointer never swaps to an
	// exact backend mid-run and refills stay real.
	fixedCfg := DefaultConfig()
	fixedCfg.Samples = 400
	fixedCfg.MinSamples = 400
	fixedCfg.Inference = InferSampled
	adCfg := fixedCfg
	adCfg.MinSamples = 50

	pf := MustNew(constraints.Default(d.Network), fixedCfg, rand.New(rand.NewSource(21)))
	pa := MustNew(e, adCfg, rand.New(rand.NewSource(21)))

	n := d.Network.NumCandidates()
	for c := 0; c < n; c += 4 {
		approve := d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))
		k := pa.ComponentOf(c)
		var survivors []*bitset.Set
		if u := pa.comps[k].pieceFor(c); u != nil {
			u.store.ForEachInstance(func(inst *bitset.Set) bool {
				if inst.Has(c) == approve {
					survivors = append(survivors, inst.Clone())
				}
				return true
			})
		}
		if err := pf.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
		if err := pa.Assert(c, approve); err != nil {
			t.Fatal(err)
		}
		checkStoreInvariants(t, pf, pf.ComponentOf(c))
		checkStoreInvariants(t, pa, k)
		for _, u := range pa.comps[k].pieces {
			mask := bitset.FromIndices(n, u.members...)
			for _, sv := range survivors {
				proj := sv.Clone()
				proj.IntersectWith(mask)
				if proj.Empty() {
					continue // sv never reached this piece
				}
				found := false
				u.store.ForEachInstance(func(inst *bitset.Set) bool {
					found = inst.Equal(proj)
					return !found
				})
				if !found {
					t.Fatalf("candidate %d: a surviving sample was discarded by the chunked refill", c)
				}
			}
		}
	}
	if fe, ae := pf.Emissions(), pa.Emissions(); ae >= fe {
		t.Errorf("chunked requested %d emissions, single-chunk %d — chunked must be cheaper", ae, fe)
	}
}
