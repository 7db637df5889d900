package schemanet_test

// Benchmarks for the dynamic-network topology operations: what one
// incremental arrival costs on a live session, and how that compares
// to recompiling the world from scratch (the only option before
// AddSchema/AddCandidates existed).

import (
	"fmt"
	"testing"

	"schemanet"
)

// BenchmarkAddSchema measures registering one fresh (candidate-free)
// schema on a live multi-component session: network append, conflict
// index growth, and cycle-plan refresh — no component store is
// touched, so no resampling happens. The session is recycled every 64
// schemas so the auto-connected interaction graph stays bounded.
func BenchmarkAddSchema(b *testing.B) {
	d := benchMultiComponentDataset(b, 512, 4)
	attrs := []string{"id", "name", "amount", "date"}
	fresh := func() *schemanet.Session {
		s, err := schemanet.NewSession(d.Network, nil)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := fresh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 && i > 0 {
			b.StopTimer()
			s = fresh()
			b.StartTimer()
		}
		if err := s.AddSchema(fmt.Sprintf("late_%d", i), attrs...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddCandidatesMerge measures the component-merge path on the
// multicomp profile: a batch of candidates bridging two of the four
// constraint-connected components arrives on a live session
// (incremental — untouched components keep samples, probabilities, and
// cached gains; only the merged component is rebuilt), versus
// rebuilding the final network and a fresh session from scratch
// (recompile + resample the world). Incremental should win: it pays
// for the merged component only.
func BenchmarkAddCandidatesMerge(b *testing.B) {
	for _, size := range []int{512, 2048} {
		d := benchMultiComponentDataset(b, size, 4)
		base := d.Network
		nc := base.NumCandidates()
		// A bridge between the first and last groups: their attribute
		// ranges are disjoint, so these endpoints are guaranteed to sit
		// in different constraint-connected components.
		bridge := []schemanet.Correspondence{
			{A: base.Candidate(0).A, B: base.Candidate(nc - 1).B, Confidence: 0.8},
			{A: base.Candidate(0).B, B: base.Candidate(nc - 1).A, Confidence: 0.5},
		}

		b.Run(fmt.Sprintf("C=%d/incremental", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := schemanet.NewSession(base, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := s.AddCandidates(bridge); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("C=%d/rebuild", size), func(b *testing.B) {
			// WithCandidates validates against the interaction graph and
			// (unlike the live AppendCandidates path) does not add missing
			// edges, so pre-connect the bridged schemas on a clone.
			pre := base.Clone()
			for _, c := range bridge {
				pre.Interaction().AddEdge(int(pre.SchemaOf(c.A)), int(pre.SchemaOf(c.B)))
			}
			final := append(pre.Candidates(), bridge...)
			for i := 0; i < b.N; i++ {
				net, err := pre.WithCandidates(final)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := schemanet.NewSession(net, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAddCandidatesIsolated measures growth beside a dense
// single-component session: two late schemas arrive with one candidate
// between them, which forms a component of its own. The session's
// component keeps its member list, so it is carried — pieces, stores
// and probabilities stay as they are — and the op pays for the
// topology bookkeeping, not for re-drawing the old component.
func BenchmarkAddCandidatesIsolated(b *testing.B) {
	for _, size := range []int{256, 512} {
		d, _ := benchDataset(b, size)
		b.Run(benchName(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := schemanet.NewSession(d.Network, nil)
				if err != nil {
					b.Fatal(err)
				}
				if s.Components() != 1 {
					b.Fatalf("dense C=%d session has %d components, want one", size, s.Components())
				}
				b.StartTimer()
				if err := s.AddSchema("late_a", "x"); err != nil {
					b.Fatal(err)
				}
				if err := s.AddSchema("late_b", "y"); err != nil {
					b.Fatal(err)
				}
				// Attributes added by AddSchema follow in append order.
				na := s.Network().NumAttributes()
				if err := s.AddCandidates([]schemanet.Correspondence{
					{A: schemanet.AttrID(na - 2), B: schemanet.AttrID(na - 1), Confidence: 0.7},
				}); err != nil {
					b.Fatal(err)
				}
				if s.Components() != 2 {
					b.Fatalf("grown session has %d components, want two", s.Components())
				}
			}
		})
	}
}

// BenchmarkRetireCandidate measures withdrawing one candidate from a
// live dense C=512 session: the network tombstones it, Γ is compiled
// for the retired network, and the component that held it is rebuilt
// under the (empty) feedback. `first` retires on a fresh session, whose
// op also clones the network it shared with other sessions; `owned`
// retires on a session that already owns its network after one earlier
// topology op (a candidate-free AddSchema).
func BenchmarkRetireCandidate(b *testing.B) {
	d, _ := benchDataset(b, 512)
	victim := d.Network.NumCandidates() / 2
	for _, mode := range []struct {
		name  string
		owned bool
	}{{"first", false}, {"owned", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := schemanet.NewSession(d.Network, nil)
				if err != nil {
					b.Fatal(err)
				}
				if mode.owned {
					if err := s.AddSchema("late", "x"); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := s.RetireCandidate(victim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
