package constraints

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"schemanet/internal/bitset"
	"schemanet/internal/datagen"
	"schemanet/internal/schema"
)

// refPieces is the reference partition LivePieces is held to: violation
// classes of the live members, with every violation materialized
// through the Constraint interface by the interpreted evaluator.
func refPieces(e *Engine, members []int, approved, disapproved *bitset.Set) [][]int {
	net := e.Network()
	ref := newInterpreted(net, e.Constraints()...)
	live := e.NewInstance()
	var list []int
	for _, c := range members {
		if approved.Has(c) || disapproved.Has(c) || net.Retired(c) || ref.HasConflict(approved, c) {
			continue
		}
		live.Add(c)
		list = append(list, c)
	}
	inst := live.Clone()
	inst.UnionWith(approved)
	label := map[int]int{}
	for _, c := range list {
		label[c] = c
	}
	relabel := func(from, to int) {
		for c, l := range label {
			if l == from {
				label[c] = to
			}
		}
	}
	for _, c := range list {
		for _, con := range e.Constraints() {
			for _, v := range con.ConflictsWith(inst, c) {
				for _, d := range v.Cands {
					if live.Has(d) && label[d] != label[c] {
						a, b := label[c], label[d]
						if a > b {
							a, b = b, a
						}
						relabel(b, a)
					}
				}
			}
		}
	}
	idx := map[int]int{}
	var out [][]int
	for _, c := range list {
		k, ok := idx[label[c]]
		if !ok {
			k = len(out)
			idx[label[c]] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], c)
	}
	return out
}

// randomFeedback draws a consistent F+ (a random part of a random
// maximal instance) and a random F− outside it.
func randomFeedback(e *Engine, rng *rand.Rand) (approved, disapproved *bitset.Set) {
	n := e.Network().NumCandidates()
	inst := e.NewInstance()
	e.Maximize(inst, nil, rng)
	approved, disapproved = bitset.New(n), bitset.New(n)
	inst.ForEach(func(c int) bool {
		if rng.Intn(3) == 0 {
			approved.Add(c)
		}
		return true
	})
	for c := 0; c < n; c++ {
		if !approved.Has(c) && rng.Intn(6) == 0 {
			disapproved.Add(c)
		}
	}
	return approved, disapproved
}

func denseNet(t testing.TB, size int, seed int64) *schema.Network {
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
	return d.Network
}

// TestLivePiecesMatchesReference holds the streamed partition to the
// interpreted one, component by component, at zero and random feedback,
// and checks that re-partitioning one piece after an assertion gives
// the pieces a whole-component partition gives.
func TestLivePiecesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		var e *Engine
		if trial%2 == 0 {
			d, err := datagen.SyntheticNetwork(datagen.Scale(datagen.BP(), 0.3),
				datagen.DefaultSyntheticOpts(70), rng)
			if err != nil {
				t.Fatal(err)
			}
			e = Default(d.Network)
		} else {
			e = Default(denseNet(t, 48, int64(trial)))
		}
		n := e.Network().NumCandidates()
		parts := e.Components()
		for round := 0; round < 4; round++ {
			approved, disapproved := bitset.New(n), bitset.New(n)
			if round > 0 {
				approved, disapproved = randomFeedback(e, rng)
			}
			for k := 0; k < parts.NumComponents(); k++ {
				members := parts.Members(k)
				got := e.LivePieces(members, approved, disapproved)
				want := refPieces(e, members, approved, disapproved)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d round %d component %d: LivePieces %v, reference %v", trial, round, k, got, want)
				}
				// Assert one live member of the largest piece either way and
				// re-partition only that piece.
				big := -1
				for i, p := range got {
					if big < 0 || len(p) > len(got[big]) {
						big = i
					}
				}
				if big < 0 {
					continue
				}
				c := got[big][rng.Intn(len(got[big]))]
				a2, d2 := approved.Clone(), disapproved.Clone()
				if rng.Intn(2) == 0 {
					a2.Add(c)
				} else {
					d2.Add(c)
				}
				var split [][]int
				for i, p := range got {
					if i == big {
						split = append(split, e.LivePieces(p, a2, d2)...)
					} else {
						split = append(split, p)
					}
				}
				whole := e.LivePieces(members, a2, d2)
				if !sameClasses(split, whole) {
					t.Fatalf("trial %d round %d: splitting one piece gave %v, whole partition %v", trial, round, split, whole)
				}
			}
		}
	}
}

// sameClasses reports whether two partitions hold the same classes in
// any order.
func sameClasses(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(p []int) string { return fmt.Sprint(p) }
	seen := map[string]int{}
	for _, p := range a {
		seen[key(p)]++
	}
	for _, p := range b {
		if seen[key(p)] == 0 {
			return false
		}
		seen[key(p)]--
	}
	return true
}

// TestPiecesRefineComponents checks the invariant the piecewise PMN
// backend relies on: at zero and random feedback, every live piece lies
// inside one Engine.Components class. On dense-256 it also reports how
// much coarser the compiled partition is than the zero-feedback pieces,
// and which compiled links join different pieces: conflict-matrix rows
// or gate masks.
func TestPiecesRefineComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for seed := int64(1); seed <= 3; seed++ {
		e := Default(denseNet(t, 256, seed))
		n := e.Network().NumCandidates()
		parts := e.Components()
		for round := 0; round < 3; round++ {
			approved, disapproved := bitset.New(n), bitset.New(n)
			if round > 0 {
				approved, disapproved = randomFeedback(e, rng)
			}
			for k := 0; k < parts.NumComponents(); k++ {
				for _, p := range e.LivePieces(parts.Members(k), approved, disapproved) {
					for _, c := range p {
						if parts.ComponentOf(c) != k {
							t.Fatalf("seed %d: piece %v of component %d holds %d from component %d",
								seed, p, k, c, parts.ComponentOf(c))
						}
					}
				}
			}
		}

		// Zero-feedback pieces against the compiled partition.
		pieceOf := make([]int, n)
		npieces, largest := 0, 0
		none := bitset.New(n)
		for k := 0; k < parts.NumComponents(); k++ {
			for _, p := range e.LivePieces(parts.Members(k), none, none) {
				for _, c := range p {
					pieceOf[c] = npieces
				}
				npieces++
				largest = max(largest, len(p))
			}
		}
		rowLinks, gateLinks := 0, 0
		for c, r := range e.idx.rows {
			if r == nil {
				continue
			}
			r.ForEach(func(d int) bool {
				if pieceOf[c] != pieceOf[d] {
					rowLinks++
				}
				return true
			})
		}
		for gi := range e.idx.gates {
			for c, m := range e.idx.gates[gi].masks {
				if m == nil {
					continue
				}
				m.ForEach(func(d int) bool {
					if pieceOf[c] != pieceOf[d] {
						gateLinks++
					}
					return true
				})
			}
		}
		if rowLinks != 0 {
			t.Errorf("seed %d: %d conflict-row links join different zero-feedback pieces; a pairwise conflict is a violation and must stay inside one", seed, rowLinks)
		}
		t.Logf("dense-256 seed %d: %d compiled components, %d zero-feedback pieces (largest %d); cross-piece links: %d from conflict rows, %d from gate masks",
			seed, parts.NumComponents(), npieces, largest, rowLinks, gateLinks)
	}
}
