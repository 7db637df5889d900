package schemanet_test

// The piecewise exact reference. Feedback cuts a component's
// conditioned instance space into independent factors: a live member
// is unasserted and does not conflict with F+, and a piece is a
// connected class of live members under the violations among them,
// with approved members contracted out of each violation and
// violations through a disapproved or non-live member dropped. Every
// matching instance is F+ plus one maximal set per piece, so the
// instance count is the product of the pieces' counts and each marginal
// reads off its own piece. This file holds that reference, built
// through the Constraint interface (Engine.ConflictsWith), and the test
// that it agrees with whole-component enumeration wherever the latter
// runs.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"schemanet"
	"schemanet/internal/bitset"
	"schemanet/internal/constraints"
	"schemanet/internal/core"
	"schemanet/internal/datagen"
	"schemanet/internal/sampling"
)

// refLivePieces is the reference partition of members into live pieces
// under (approved, disapproved): pieces ordered by smallest member,
// members ascending.
func refLivePieces(e *constraints.Engine, members []int, approved, disapproved *bitset.Set) [][]int {
	net := e.Network()
	live := bitset.New(net.NumCandidates())
	var list []int
	for _, c := range members {
		if approved.Has(c) || disapproved.Has(c) || net.Retired(c) || e.HasConflict(approved, c) {
			continue
		}
		live.Add(c)
		list = append(list, c)
	}
	inst := live.Clone()
	inst.UnionWith(approved)
	parent := make(map[int]int, len(list))
	for _, c := range list {
		parent[c] = c
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, c := range list {
		for _, v := range e.ConflictsWith(inst, c) {
			for _, d := range v.Cands {
				if live.Has(d) {
					a, b := find(c), find(d)
					if a < b {
						a, b = b, a
					}
					parent[a] = b // the smaller id roots its class
				}
			}
		}
	}
	idx := map[int]int{}
	var out [][]int
	for _, c := range list {
		r := find(c)
		k, ok := idx[r]
		if !ok {
			k = len(out)
			idx[r] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], c)
	}
	return out
}

// pieceOracle tracks a session's feedback and serves exact marginals
// and information gains as a product of per-piece enumerations.
type pieceOracle struct {
	e                     *constraints.Engine
	approved, disapproved *bitset.Set
}

func newPieceOracle(net *schemanet.Network) *pieceOracle {
	n := net.NumCandidates()
	return &pieceOracle{e: constraints.Default(net), approved: bitset.New(n), disapproved: bitset.New(n)}
}

func (o *pieceOracle) assert(c int, ok bool) {
	if ok {
		o.approved.Add(c)
	} else {
		o.disapproved.Add(c)
	}
}

// enumeratePiece lists the piece's matching sets: the maximal subsets
// J of the piece with F+ ∪ J consistent, each projected onto the piece.
func (o *pieceOracle) enumeratePiece(piece []int, limit int) ([]*bitset.Set, error) {
	n := o.e.Network().NumCandidates()
	mask := bitset.FromIndices(n, piece...)
	within := mask.Clone()
	within.UnionWith(o.approved)
	insts, err := sampling.EnumerateWithin(o.e, o.approved, o.disapproved, within, limit)
	if err != nil {
		return nil, err
	}
	for _, inst := range insts {
		inst.IntersectWith(mask)
	}
	return insts, nil
}

// pieceCounts returns, per live piece of members, its instance count
// and per-member containing counts.
func (o *pieceOracle) pieceCounts(members []int, limit int) ([][]int, []int, map[int]int, error) {
	pieces := refLivePieces(o.e, members, o.approved, o.disapproved)
	counts := make([]int, len(pieces))
	with := map[int]int{}
	for i, piece := range pieces {
		insts, err := o.enumeratePiece(piece, limit)
		if err != nil {
			return nil, nil, nil, err
		}
		counts[i] = len(insts)
		for _, inst := range insts {
			inst.ForEach(func(c int) bool {
				with[c]++
				return true
			})
		}
	}
	return pieces, counts, with, nil
}

// exact returns every candidate's exact probability and information
// gain under the current feedback, and the best gain over uncertain
// unasserted candidates (-1 when none is left).
func (o *pieceOracle) exact(t testing.TB) (probs, gains []float64, best float64) {
	t.Helper()
	net := o.e.Network()
	n := net.NumCandidates()
	probs = make([]float64, n)
	gains = make([]float64, n)
	best = -1
	parts := o.e.Components()
	for k := 0; k < parts.NumComponents(); k++ {
		pieces := refLivePieces(o.e, parts.Members(k), o.approved, o.disapproved)
		for _, piece := range pieces {
			insts, err := o.enumeratePiece(piece, 0)
			if err != nil {
				t.Fatal(err)
			}
			pieceGains(piece, insts, probs, gains)
		}
	}
	for c := 0; c < n; c++ {
		switch {
		case o.approved.Has(c):
			probs[c], gains[c] = 1, 0
		case o.disapproved.Has(c):
			probs[c], gains[c] = 0, 0
		case probs[c] > 0 && probs[c] < 1 && gains[c] > best:
			best = gains[c]
		}
	}
	return probs, gains, best
}

// pieceGains writes the marginals of one piece from its complete
// instance list, and each uncertain member's gain H_P − E[H_P | c].
func pieceGains(piece []int, insts []*bitset.Set, probs, gains []float64) {
	total := len(insts)
	if total == 0 {
		return
	}
	count := func(sub []*bitset.Set) []int {
		out := make([]int, len(piece))
		for _, inst := range sub {
			for j, d := range piece {
				if inst.Has(d) {
					out[j]++
				}
			}
		}
		return out
	}
	entropy := func(cnt []int, tot int) float64 {
		if tot == 0 {
			return 0
		}
		h := 0.0
		for _, x := range cnt {
			h += core.BinaryEntropy(float64(x) / float64(tot))
		}
		return h
	}
	all := count(insts)
	hp := entropy(all, total)
	for j, c := range piece {
		probs[c] = float64(all[j]) / float64(total)
	}
	for _, c := range piece {
		pc := probs[c]
		if pc <= 0 || pc >= 1 {
			continue
		}
		var in, out []*bitset.Set
		for _, inst := range insts {
			if inst.Has(c) {
				in = append(in, inst)
			} else {
				out = append(out, inst)
			}
		}
		ig := hp - (pc*entropy(count(in), len(in)) + (1-pc)*entropy(count(out), len(out)))
		if ig > 0 {
			gains[c] = ig
		}
	}
}

// namedNet is one network a piecewise test drives.
type namedNet struct {
	name string
	d    *schemanet.Dataset
}

// factorizeNets are the networks TestPiecesFactorize drives: the
// one-component dense shape at four sizes and ten seeds, and the
// many-component profile.
func factorizeNets(t *testing.T) []namedNet {
	var out []namedNet
	for _, size := range []int{24, 32, 40, 48} {
		for seed := int64(1); seed <= 10; seed++ {
			out = append(out, namedNet{fmt.Sprintf("dense-%d/%d", size, seed), smallDenseNet(t, size, seed)})
		}
	}
	return append(out, namedNet{"multicomp", adaptiveNet(t)})
}

// factorizeLimit caps each whole-component enumeration; a component
// over it is skipped at that step.
const factorizeLimit = 1 << 12

// TestPiecesFactorize drives goal-seeking sessions (suggest, answer
// from ground truth, stop at a tenth of the initial uncertainty) and,
// at every step where a component's whole enumeration fits
// factorizeLimit, holds the piecewise reference to it: the product of
// the pieces' instance counts equals the component's count, and every
// member's marginal is bit-identical.
func TestPiecesFactorize(t *testing.T) {
	compared := 0
	for _, tc := range factorizeNets(t) {
		d := tc.d
		net := d.Network
		s, err := schemanet.NewSession(net, &schemanet.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		o := newPieceOracle(net)
		n := net.NumCandidates()
		parts := o.e.Components()
		h0 := s.Uncertainty()
		for step := 0; ; step++ {
			for k := 0; k < parts.NumComponents(); k++ {
				members := parts.Members(k)
				mask := bitset.FromIndices(n, members...)
				whole, err := sampling.EnumerateWithin(o.e, o.approved, o.disapproved, mask, factorizeLimit)
				if err != nil {
					continue
				}
				_, counts, with, err := o.pieceCounts(members, 0)
				if err != nil {
					t.Fatal(err)
				}
				prod := 1
				for _, x := range counts {
					prod *= x
				}
				if prod != len(whole) {
					t.Fatalf("%s step %d component %d: pieces multiply to %d instances, whole enumeration has %d",
						tc.name, step, k, prod, len(whole))
				}
				wp := sampling.ProbabilitiesOf(whole, n)
				pieces := refLivePieces(o.e, members, o.approved, o.disapproved)
				pieceOf := map[int]int{}
				for i, piece := range pieces {
					for _, c := range piece {
						pieceOf[c] = i
					}
				}
				for _, c := range members {
					var p float64
					switch i, live := pieceOf[c]; {
					case o.approved.Has(c):
						p = wp[c] // F+ is in every instance (1), or Ω is empty (0)
					case live && counts[i] > 0:
						p = float64(with[c]) / float64(counts[i])
					}
					if prod == 0 {
						p = 0
					}
					if p != wp[c] {
						t.Fatalf("%s step %d: p(%d) piecewise %v, whole %v", tc.name, step, c, p, wp[c])
					}
				}
				compared++
			}
			if s.Uncertainty() <= 0.1*h0 {
				break
			}
			c, ok := s.Suggest()
			if !ok {
				break
			}
			truth := d.GroundTruth.ContainsCorrespondence(net.Candidate(c))
			if err := s.Assert(c, truth); err != nil {
				t.Fatal(err)
			}
			o.assert(c, truth)
		}
	}
	if compared == 0 {
		t.Fatal("no step enumerated a whole component; the comparison never ran")
	}
	t.Logf("%d component-steps compared", compared)
}

// TestPieceOracleMatchesExactSession holds the oracle's marginals and
// gains to the exact backend on the harness's enumerable profiles, so
// the piecewise twin of the larger profiles measures the same
// quantities the session twin does.
func TestPieceOracleMatchesExactSession(t *testing.T) {
	for _, size := range []int{12, 18, 22} {
		d := smallDenseNet(t, size, 4)
		net := d.Network
		ex, err := schemanet.NewSession(net, &schemanet.Options{Inference: "exact", ExactBudget: 1 << 18})
		if err != nil {
			t.Fatal(err)
		}
		o := newPieceOracle(net)
		n := net.NumCandidates()
		for _, c := range rand.New(rand.NewSource(1)).Perm(n)[:n/2] {
			probs, gains, best := o.exact(t)
			want := schemanet.InformationGains(ex)
			_, wantBest := schemanet.ExhaustiveTies(ex)
			for cc := 0; cc < n; cc++ {
				p, _ := ex.Probability(cc)
				if p != probs[cc] {
					t.Fatalf("dense-%d: p(%d) oracle %v, exact session %v", size, cc, probs[cc], p)
				}
				if math.Abs(gains[cc]-want[cc]) > 1e-9 {
					t.Fatalf("dense-%d: IG(%d) oracle %v, exact session %v", size, cc, gains[cc], want[cc])
				}
			}
			if math.Abs(best-wantBest) > 1e-9 {
				t.Fatalf("dense-%d: best gain oracle %v, exact session %v", size, best, wantBest)
			}
			truth := d.GroundTruth.ContainsCorrespondence(net.Candidate(c))
			if err := ex.Assert(c, truth); err != nil {
				t.Fatal(err)
			}
			o.assert(c, truth)
		}
	}
}

// TestInferenceOfConstructionRule pins what InferenceOf reports at
// construction to an oracle of the whole-component rule: under the
// default options a component is exact when its free-candidate count is
// below the default budget and at most the attempt ceiling, and its
// whole instance space enumerates within the budget; every other
// component is piece-served and reports sampled, however many of its
// pieces enumerate. Workloads that draw networks until every component
// is exact depend on this rule, so it is checked on 100 multicomp
// C=256 networks.
func TestInferenceOfConstructionRule(t *testing.T) {
	const budget = core.DefaultExactBudget
	ceiling := 3*bits.Len(uint(budget)) + 8
	exact, sampled := 0, 0
	for seed := int64(1); seed <= 100; seed++ {
		d, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
			TargetCount: 256, Precision: 0.67, ConflictBias: 0.3, StrictCount: true,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := schemanet.NewSession(d.Network, &schemanet.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		e := constraints.Default(d.Network)
		parts := e.Components()
		if s.Components() != parts.NumComponents() {
			t.Fatalf("seed %d: %d components, oracle %d", seed, s.Components(), parts.NumComponents())
		}
		n := d.Network.NumCandidates()
		for k := 0; k < parts.NumComponents(); k++ {
			members := parts.Members(k)
			want := schemanet.InferenceSampled
			if free := len(members); free < budget && free <= ceiling {
				if _, err := sampling.EnumerateWithin(e, nil, nil, bitset.FromIndices(n, members...), budget); err == nil {
					want = schemanet.InferenceExact
				}
			}
			got, err := s.InferenceOf(k)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d component %d (%d members): InferenceOf %v, rule says %v", seed, k, len(members), got, want)
			}
			if want == schemanet.InferenceExact {
				exact++
			} else {
				sampled++
			}
		}
	}
	if sampled == 0 {
		t.Fatal("no sampled component among the networks; the rule's other branch is unchecked")
	}
	t.Logf("%d exact and %d sampled components", exact, sampled)
}

// TestInferenceOfFollowsFeedback holds InferenceOf to the whole-
// component rule of TestInferenceOfConstructionRule at the current
// feedback rather than at construction: after every assertion of
// goal-driven multicomp C=512 sessions, on a Session, on a
// ConcurrentSession given the same assertions, and on a LoadSession
// restore of the final state. Wherever the rule says exact, every live
// piece of the component must be enumerated (PieceCounts).
func TestInferenceOfFollowsFeedback(t *testing.T) {
	const budget = core.DefaultExactBudget
	ceiling := 3*bits.Len(uint(budget)) + 8
	turned, sampled := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		d := multiCompDataset(t, 512, seed)
		net := d.Network
		n := net.NumCandidates()
		opts := schemanet.Options{Seed: seed, Workers: 1}
		s, err := schemanet.NewSession(net, &opts)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := schemanet.NewConcurrentSession(net, &opts)
		if err != nil {
			t.Fatal(err)
		}
		e := constraints.Default(net)
		parts := e.Components()
		approved, disapproved := bitset.New(n), bitset.New(n)
		rule := func(k int) schemanet.InferenceMode {
			members := parts.Members(k)
			free := 0
			for _, c := range members {
				if !approved.Has(c) && !disapproved.Has(c) {
					free++
				}
			}
			if free < budget && free <= ceiling {
				if _, err := sampling.EnumerateWithin(e, approved, disapproved, bitset.FromIndices(n, members...), budget); err == nil {
					return schemanet.InferenceExact
				}
			}
			return schemanet.InferenceSampled
		}
		type surface interface {
			InferenceOf(k int) (schemanet.InferenceMode, error)
		}
		check := func(label string, sf surface, k int, want schemanet.InferenceMode) {
			t.Helper()
			got, err := sf.InferenceOf(k)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d %s component %d: InferenceOf %v, rule says %v", seed, label, k, got, want)
			}
		}
		checkPieces := func(label string, s *schemanet.Session, k int) {
			t.Helper()
			if pieces, exact := schemanet.PieceCounts(s, k); exact != pieces {
				t.Fatalf("seed %d %s component %d: rule says exact, %d of %d pieces exact", seed, label, k, exact, pieces)
			}
		}
		initial := make([]schemanet.InferenceMode, parts.NumComponents())
		for k := range initial {
			initial[k] = rule(k)
		}
		h0 := s.Uncertainty()
		for s.Uncertainty() > 0.1*h0 {
			c, ok := s.Suggest()
			if !ok {
				break
			}
			truth := d.GroundTruth.ContainsCorrespondence(net.Candidate(c))
			if err := s.Assert(c, truth); err != nil {
				t.Fatal(err)
			}
			if err := cs.Assert(c, truth); err != nil {
				t.Fatal(err)
			}
			if truth {
				approved.Add(c)
			} else {
				disapproved.Add(c)
			}
			k := parts.ComponentOf(c)
			want := rule(k)
			check("Session", s, k, want)
			check("ConcurrentSession", cs, k, want)
			if want == schemanet.InferenceExact {
				checkPieces("Session", s, k)
			}
		}
		var buf strings.Builder
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := schemanet.LoadSession(net, &opts, strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < parts.NumComponents(); k++ {
			want := rule(k)
			check("Session", s, k, want)
			check("LoadSession", r, k, want)
			if want == schemanet.InferenceExact {
				checkPieces("LoadSession", r, k)
				if initial[k] == schemanet.InferenceSampled {
					turned++
				}
			} else {
				sampled++
			}
		}
	}
	if turned == 0 || sampled == 0 {
		t.Fatalf("%d components turned exact under feedback, %d stayed sampled; want both", turned, sampled)
	}
	t.Logf("%d components turned exact under feedback, %d stayed sampled", turned, sampled)
}

// multiCompDataset is the small-component-heavy multicomp profile at
// the given size.
func multiCompDataset(t testing.TB, size int, seed int64) *schemanet.Dataset {
	t.Helper()
	d, err := datagen.SyntheticNetwork(datagen.MultiComp(), datagen.SyntheticOpts{
		TargetCount: size, Precision: 0.67, ConflictBias: 0.3, StrictCount: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPieceCountersSurviveRestore drives default sessions on the
// one-component dense-256 shape to the paper's goal, saves them, and
// restores them with LoadSession: the restore computes the pieces under
// the saved feedback, so its piece counters must equal the live
// session's, which reached the same pieces by splitting.
func TestPieceCountersSurviveRestore(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d := denseDataset(t, 256, seed)
		net := d.Network
		opts := schemanet.Options{Seed: seed}
		s, err := schemanet.NewSession(net, &opts)
		if err != nil {
			t.Fatal(err)
		}
		h0 := s.Uncertainty()
		steps := 0
		for s.Uncertainty() > 0.1*h0 {
			c, ok := s.Suggest()
			if !ok {
				break
			}
			if err := s.Assert(c, d.GroundTruth.ContainsCorrespondence(net.Candidate(c))); err != nil {
				t.Fatal(err)
			}
			steps++
		}
		var buf strings.Builder
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := schemanet.LoadSession(net, &opts, strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < s.Components(); k++ {
			lp, lx := schemanet.PieceCounts(s, k)
			rp, rx := schemanet.PieceCounts(r, k)
			if lp != rp || lx != rx {
				t.Fatalf("seed %d component %d: live %d pieces (%d exact), restored %d (%d exact)", seed, k, lp, lx, rp, rx)
			}
			if lp > 0 {
				t.Logf("dense-256 seed %d at the goal (%d steps): component %d has %d live pieces, %d served exactly", seed, steps, k, lp, lx)
			}
		}
	}
}

// denseDataset is the one-component dense shape of the benchmarks at
// the given size.
func denseDataset(t testing.TB, size int, seed int64) *schemanet.Dataset {
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
