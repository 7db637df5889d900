package core

import (
	"math/rand"
	"testing"

	"schemanet/internal/constraints"
	"schemanet/internal/datagen"
	"schemanet/internal/schema"
)

// benchTopkPMN builds a bench-scale PMN on the multicomp profile
// (TargetCount 512, the BenchmarkSessionAssertInference workload).
func benchTopkPMN(b *testing.B, seed int64) (*PMN, *schema.Dataset) {
	b.Helper()
	ds, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
		TargetCount: 512, Precision: 0.67, ConflictBias: 0.3, StrictCount: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	return MustNew(constraints.Default(ds.Network), DefaultConfig(), rand.New(rand.NewSource(seed+1))), ds
}

// BenchmarkTopGainPass measures one top-rank pass at the core layer:
// the lazy bound-pruned evaluator (TopGainTies) against the exhaustive
// oracle (exhaustiveTies: a full uncached gain pass plus an argmax
// scan). Each iteration ranks, then asserts the winner off the clock,
// so the next pruned pass re-ranks exactly one stale component against
// cached bounds on the rest — the steady-state shape of a live
// session's suggest loop — while the oracle recomputes every gain.
func BenchmarkTopGainPass(b *testing.B) {
	for _, mode := range []struct {
		name       string
		exhaustive bool
	}{{"rank=pruned", false}, {"rank=exhaustive", true}} {
		b.Run("multicomp/C=512/"+mode.name, func(b *testing.B) {
			p, d := benchTopkPMN(b, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var ties []int
				if mode.exhaustive {
					ties, _ = exhaustiveTies(p)
				} else {
					ties, _ = p.TopGainTies()
				}
				b.StopTimer()
				if len(ties) == 0 {
					p, d = benchTopkPMN(b, int64(7+i))
				} else {
					c := ties[0]
					approve := d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))
					if err := p.Assert(c, approve); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
		})
	}
}
