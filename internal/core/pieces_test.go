package core

import (
	"math/rand"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/datagen"
	"schemanet/internal/schema"
)

// denseDataset is the one-component dense shape of the benchmarks.
func denseDataset(t testing.TB, size int, seed int64) *schema.Dataset {
	t.Helper()
	attrs := max(size/16, 12)
	d, err := datagen.SyntheticNetwork(datagen.Profile{
		Name: "dense", Domain: datagen.PurchaseOrder(),
		NumSchemas: 8, MinAttrs: attrs, MaxAttrs: attrs + 4,
		PoolFactor: 1.3, SynonymProb: 0.2, AbbrevProb: 0.15, EdgeProb: 0.5,
	}, datagen.SyntheticOpts{TargetCount: size, Precision: 0.67, ConflictBias: 0.7, StrictCount: true},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// driveToGoal runs the paper's loop on p (information-gain suggestions
// answered from ground truth) until H ≤ 0.1·H0, calling step after
// every assertion.
func driveToGoal(t testing.TB, p *PMN, d *schema.Dataset, rng *rand.Rand, step func()) {
	t.Helper()
	h0 := p.Entropy()
	for p.Entropy() > 0.1*h0 {
		c, ok := InfoGainStrategy{}.Next(p, rng)
		if !ok {
			return
		}
		if err := p.Assert(c, d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))); err != nil {
			t.Fatal(err)
		}
		step()
	}
}

// pieceSizes returns the piece-served component k's live pieces as the
// backend holds them: member counts of its stores and its single live
// members.
func pieceSizes(p *PMN, k int) (sizes []int, live int) {
	inf := p.comps[k]
	for _, pc := range inf.pieces {
		sizes = append(sizes, len(pc.members))
	}
	for _, m := range inf.members {
		if p.pieceOf[m] == singleLive {
			sizes = append(sizes, 1)
		}
	}
	for _, s := range sizes {
		live += s
	}
	return sizes, live
}

// TestPieceIdentities checks the piece backend's bookkeeping after every
// assertion of goal-driven sessions: the pieces' sizes sum to the live
// member count (unasserted, not in conflict with F+), the pieces are
// exactly a fresh partition of the component under the current
// feedback (split-only maintenance loses nothing), and PieceCounts
// reports them.
func TestPieceIdentities(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *schema.Dataset
		mode InferenceMode
	}{
		{"dense-128/auto", denseDataset(t, 128, 1), InferAuto},
		{"dense-128/sampled", denseDataset(t, 128, 2), InferSampled},
	} {
		e := constraints.Default(tc.d.Network)
		cfg := DefaultConfig()
		cfg.Inference = tc.mode
		p := MustNew(e, cfg, rand.New(rand.NewSource(1)))
		steps := 0
		check := func() {
			for k, cp := range p.comps {
				members := cp.members
				live := 0
				for _, c := range members {
					if !cp.isAsserted(c) && !e.HasConflict(cp.approved, c) {
						live++
					}
				}
				sizes, sum := pieceSizes(p, k)
				if sum != live {
					t.Fatalf("%s step %d: piece sizes sum to %d, %d live members", tc.name, steps, sum, live)
				}
				fresh := e.LivePieces(members, cp.approved, cp.disapproved)
				if len(fresh) != len(sizes) {
					t.Fatalf("%s step %d: backend holds %d pieces, a fresh partition has %d", tc.name, steps, len(sizes), len(fresh))
				}
				for _, piece := range fresh {
					if len(piece) == 1 {
						if p.pieceOf[piece[0]] != singleLive {
							t.Fatalf("%s step %d: %d is a single live member, backend marks %d", tc.name, steps, piece[0], p.pieceOf[piece[0]])
						}
						continue
					}
					slot := p.pieceOf[piece[0]]
					if slot < 0 {
						t.Fatalf("%s step %d: piece %v has no store", tc.name, steps, piece)
					}
					got := cp.pieces[slot].members
					if len(got) != len(piece) {
						t.Fatalf("%s step %d: backend piece %v, fresh partition %v", tc.name, steps, got, piece)
					}
					for i := range got {
						if got[i] != piece[i] {
							t.Fatalf("%s step %d: backend piece %v, fresh partition %v", tc.name, steps, got, piece)
						}
					}
				}
				if n, _ := p.PieceCounts(k); n != len(sizes) {
					t.Fatalf("%s step %d: PieceCounts reports %d pieces, backend holds %d", tc.name, steps, n, len(sizes))
				}
			}
			steps++
		}
		check()
		driveToGoal(t, p, tc.d, rand.New(rand.NewSource(2)), check)
	}
}

// TestPieceCountersDeterministic drives the same goal-seeking session
// twice under one seed: the piece counters, the emissions and every
// probability must agree bit for bit after every step.
func TestPieceCountersDeterministic(t *testing.T) {
	d := denseDataset(t, 128, 3)
	run := func() (trace []int, probs [][]float64) {
		cfg := DefaultConfig()
		cfg.Inference = InferAuto
		p := MustNew(constraints.Default(d.Network), cfg, rand.New(rand.NewSource(4)))
		driveToGoal(t, p, d, rand.New(rand.NewSource(5)), func() {
			for k := range p.comps {
				n, x := p.PieceCounts(k)
				trace = append(trace, n, x)
			}
			trace = append(trace, p.Emissions())
			probs = append(probs, p.Probabilities())
		})
		return trace, probs
	}
	t1, p1 := run()
	t2, p2 := run()
	if len(t1) != len(t2) {
		t.Fatalf("runs differ in length: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("counter %d: %d vs %d", i, t1[i], t2[i])
		}
	}
	for s := range p1 {
		for c := range p1[s] {
			if p1[s][c] != p2[s][c] {
				t.Fatalf("step %d: p(%d) %v vs %v", s, c, p1[s][c], p2[s][c])
			}
		}
	}
}

// TestPieceStreamsIndependentOfOtherPieces asserts one member of each
// of two pieces of one sampled component in both orders. Each piece
// walks a stream of its own, seeded from its members, so the two orders
// must end in bit-identical stores and probabilities; a piece stream
// drawn from a shared rng, or a walk that reads the rest of the
// component, would make the second refill depend on the first.
func TestPieceStreamsIndependentOfOtherPieces(t *testing.T) {
	d := denseDataset(t, 96, 1)
	e := constraints.Default(d.Network)
	cfg := DefaultConfig()
	cfg.Inference = InferSampled
	mk := func() *PMN { return MustNew(e, cfg, rand.New(rand.NewSource(7))) }
	p := mk()
	// Two members of the two largest pieces of the largest component.
	k, best := 0, 0
	for i, cp := range p.comps {
		if len(cp.members) > best {
			k, best = i, len(cp.members)
		}
	}
	inf := p.comps[k]
	if len(inf.pieces) < 2 {
		t.Fatalf("component %d has %d piece stores, want two", k, len(inf.pieces))
	}
	order := sortedPieces(inf.pieces)
	big := func(skip *piece) *piece {
		var out *piece
		for _, u := range order {
			if u != skip && (out == nil || len(u.members) > len(out.members)) {
				out = u
			}
		}
		return out
	}
	u1 := big(nil)
	u2 := big(u1)
	a, b := u1.members[len(u1.members)/2], u2.members[len(u2.members)/2]
	emitted := p.Emissions()

	ab, ba := mk(), mk()
	for _, c := range []int{a, b} {
		if err := ab.Assert(c, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []int{b, a} {
		if err := ba.Assert(c, false); err != nil {
			t.Fatal(err)
		}
	}
	if ab.Emissions() == emitted {
		t.Fatal("neither disapproval refilled; the fixture does not exercise piece streams")
	}
	for c, x := range ab.Probabilities() {
		if y := ba.Probability(c); x != y {
			t.Fatalf("p(%d): %v after a then b, %v after b then a", c, x, y)
		}
	}
	xs, ys := ab.UnitStores(k), ba.UnitStores(k)
	if len(xs) != len(ys) {
		t.Fatalf("%d vs %d piece stores", len(xs), len(ys))
	}
	for i := range xs {
		if xs[i].Size() != ys[i].Size() {
			t.Fatalf("piece %d: %d vs %d instances", i, xs[i].Size(), ys[i].Size())
		}
		for j := 0; j < xs[i].Size(); j++ {
			if !xs[i].Instance(j).Equal(ys[i].Instance(j)) {
				t.Fatalf("piece %d instance %d differs between the orders", i, j)
			}
		}
	}
}

// TestSampledPieceRefillsEmptiedStore: a piece whose sampled store holds
// no instance with the approved member (the heuristic completion missed
// it) is emptied by view maintenance; the pieces it splits into must
// refill rather than stay empty.
func TestSampledPieceRefillsEmptiedStore(t *testing.T) {
	d := denseDataset(t, 96, 2)
	e := constraints.Default(d.Network)
	cfg := DefaultConfig()
	cfg.Inference = InferSampled
	p := MustNew(e, cfg, rand.New(rand.NewSource(3)))
	// Empty one piece store by hand the way a missed instance would:
	// keep only instances without c, then approve c.
	var pc *piece
	var k int
	for i, cp := range p.comps {
		for _, x := range cp.pieces {
			if len(x.members) >= 4 && (pc == nil || len(x.members) > len(pc.members)) {
				pc, k = x, i
			}
		}
	}
	if pc == nil {
		t.Fatal("no piece of four or more members")
	}
	c := pc.members[0]
	pc.store.ApplyAssertion(c, false) // the sample now lacks every instance with c
	pc.store.MarkComplete()
	r0 := p.Resamples()
	if err := p.Assert(c, true); err != nil {
		t.Fatal(err)
	}
	if p.Resamples() == r0 {
		t.Fatal("the emptied piece did not refill")
	}
	checkStoreInvariants(t, p, k)
	for _, u := range p.comps[k].pieces {
		if u.store.Size() == 0 {
			t.Fatal("a piece split from the emptied store is left empty")
		}
	}
}

// pieceSplit is one recorded re-partition: the asserted piece's members
// and the feedback right after the assertion.
type pieceSplit struct {
	members               []int
	approved, disapproved *bitset.Set
}

// BenchmarkPieceSplit measures the re-partition an assertion pays
// (Engine.LivePieces over the asserted piece) along a goal-driven
// dense-512 history, per assertion that landed in a piece store.
func BenchmarkPieceSplit(b *testing.B) {
	d := denseDataset(b, 512, 1)
	e := constraints.Default(d.Network)
	cfg := DefaultConfig()
	cfg.Inference = InferAuto
	p := MustNew(e, cfg, rand.New(rand.NewSource(1)))
	var splits []pieceSplit
	rng := rand.New(rand.NewSource(2))
	h0 := p.Entropy()
	for p.Entropy() > 0.1*h0 {
		c, ok := InfoGainStrategy{}.Next(p, rng)
		if !ok {
			break
		}
		cp := p.comps[p.compOf[c]]
		var members []int
		if slot := p.pieceOf[c]; slot >= 0 {
			members = cp.pieces[slot].members
		}
		if err := p.Assert(c, d.GroundTruth.ContainsCorrespondence(d.Network.Candidate(c))); err != nil {
			b.Fatal(err)
		}
		if members != nil {
			splits = append(splits, pieceSplit{members, cp.approved.Clone(), cp.disapproved.Clone()})
		}
	}
	if len(splits) == 0 {
		b.Fatal("no assertion landed in a piece store")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := splits[i%len(splits)]
		e.LivePieces(s.members, s.approved, s.disapproved)
	}
}
