package matcher

import (
	"math"
	"math/rand"
	"testing"

	"schemanet/internal/datagen"
	"schemanet/internal/schema"
	"schemanet/internal/similarity"
)

func TestMatrixBasics(t *testing.T) {
	rows := []schema.AttrID{0, 1}
	cols := []schema.AttrID{2, 3, 4}
	m := NewMatrix(rows, cols)
	r, c := m.Dims()
	if r != 2 || c != 3 {
		t.Fatalf("Dims = %d,%d", r, c)
	}
	m.Set(1, 2, 0.7)
	if got := m.At(1, 2); got != 0.7 {
		t.Fatalf("At = %v", got)
	}
	m.Set(0, 0, -0.5) // clamped
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("negative not clamped: %v", got)
	}
	m.Set(0, 1, 1.5)
	if got := m.At(0, 1); got != 1 {
		t.Fatalf("overflow not clamped: %v", got)
	}
	if got := m.RowMax(0); got != 1 {
		t.Fatalf("RowMax = %v", got)
	}
	if got := m.ColMax(2); got != 0.7 {
		t.Fatalf("ColMax = %v", got)
	}
	clone := m.Clone()
	clone.Set(0, 0, 0.9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone not independent")
	}
	m.Apply(func(v float64) float64 { return v / 2 })
	if got := m.At(1, 2); got != 0.35 {
		t.Fatalf("Apply result = %v", got)
	}
}

func TestAggregators(t *testing.T) {
	scores := []float64{0.2, 0.4, 0.6}
	if got := AverageAgg(scores, nil); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("AverageAgg = %v", got)
	}
	if got := MaxAgg(scores, nil); got != 0.6 {
		t.Errorf("MaxAgg = %v", got)
	}
	w := []float64{0, 0, 1}
	if got := WeightedAgg(scores, w); got != 0.6 {
		t.Errorf("WeightedAgg = %v", got)
	}
	if got := WeightedAgg(scores, nil); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("WeightedAgg nil weights = %v", got)
	}
	if got := WeightedAgg(scores, []float64{0, 0, 0}); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("WeightedAgg zero weights = %v", got)
	}
	if got := AverageAgg(nil, nil); got != 0 {
		t.Errorf("AverageAgg empty = %v", got)
	}
}

func testMatrix() *Matrix {
	m := NewMatrix([]schema.AttrID{0, 1}, []schema.AttrID{10, 11, 12})
	// row 0: 0.9, 0.85, 0.2 ; row 1: 0.3, 0.6, 0.55
	m.Set(0, 0, 0.9)
	m.Set(0, 1, 0.85)
	m.Set(0, 2, 0.2)
	m.Set(1, 0, 0.3)
	m.Set(1, 1, 0.6)
	m.Set(1, 2, 0.55)
	return m
}

func TestThresholdSelector(t *testing.T) {
	cells := Threshold{T: 0.55}.Select(testMatrix())
	if len(cells) != 4 {
		t.Fatalf("threshold selected %d, want 4", len(cells))
	}
}

func TestMaxDeltaSelector(t *testing.T) {
	cells := MaxDelta{Delta: 0.1, T: 0.5}.Select(testMatrix())
	// Row 0: max 0.9 → keeps 0.9 and 0.85. Row 1: max 0.6 → keeps 0.6
	// and 0.55.
	if len(cells) != 4 {
		t.Fatalf("max-delta selected %d, want 4", len(cells))
	}
	// Raising the floor above row-1 max drops that row entirely.
	cells = MaxDelta{Delta: 0.1, T: 0.7}.Select(testMatrix())
	if len(cells) != 2 {
		t.Fatalf("max-delta with floor selected %d, want 2", len(cells))
	}
}

// toyNet builds two small schemas with obviously matching names.
func toyNet(t *testing.T) *schema.Network {
	t.Helper()
	b := schema.NewBuilder()
	b.AddSchema("left", "customerName", "orderDate", "totalAmount", "zzqx")
	b.AddSchema("right", "customer_name", "order_date", "total_amt", "vvkw")
	b.ConnectAll()
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestCOMALikeFindsObviousMatches(t *testing.T) {
	net := toyNet(t)
	cands := NewCOMALike().Match(net)
	found := map[string]bool{}
	for _, c := range cands {
		found[net.AttrName(c.A)+"|"+net.AttrName(c.B)] = true
		if c.Confidence < 0 || c.Confidence > 1 {
			t.Errorf("confidence out of range: %v", c.Confidence)
		}
	}
	for _, want := range []string{
		"customerName|customer_name",
		"orderDate|order_date",
		"totalAmount|total_amt",
	} {
		if !found[want] {
			t.Errorf("COMA-like missed %s; got %v", want, found)
		}
	}
	if found["zzqx|vvkw"] {
		t.Error("COMA-like matched unrelated attributes")
	}
}

func TestAMCLikeFindsObviousMatches(t *testing.T) {
	net := toyNet(t)
	cands := NewAMCLike().Match(net)
	found := map[string]bool{}
	for _, c := range cands {
		found[net.AttrName(c.A)+"|"+net.AttrName(c.B)] = true
	}
	for _, want := range []string{
		"customerName|customer_name",
		"orderDate|order_date",
	} {
		if !found[want] {
			t.Errorf("AMC-like missed %s; got %v", want, found)
		}
	}
	if found["zzqx|vvkw"] {
		t.Error("AMC-like matched unrelated attributes")
	}
}

func TestMatchersAreDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := datagen.MustGenerate(datagen.Scale(datagen.BP(), 0.25), rng)
	for _, m := range []Matcher{NewCOMALike(), NewAMCLike()} {
		a := m.Match(d.Network)
		b := m.Match(d.Network)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic candidate count %d vs %d", m.Name(), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: candidate %d differs between runs", m.Name(), i)
			}
		}
	}
}

// evaluate computes precision/recall of matcher output against ground
// truth.
func evaluate(d *schema.Dataset, cands []schema.Correspondence) (prec, rec float64) {
	correct := 0
	for _, c := range cands {
		if d.GroundTruth.ContainsCorrespondence(c) {
			correct++
		}
	}
	if len(cands) > 0 {
		prec = float64(correct) / float64(len(cands))
	}
	if d.GroundTruth.Size() > 0 {
		rec = float64(correct) / float64(d.GroundTruth.Size())
	}
	return prec, rec
}

// TestMatcherCalibration checks both matchers land in a realistic
// quality band on a generated dataset: precision comparable to the
// paper's corpora (≈0.67 on BP) — neither perfect nor useless — with
// non-trivial recall. This anchors the whole experimental pipeline.
func TestMatcherCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := datagen.MustGenerate(datagen.Scale(datagen.BP(), 0.4), rng)
	for _, m := range []Matcher{NewCOMALike(), NewAMCLike()} {
		cands := m.Match(d.Network)
		if len(cands) == 0 {
			t.Fatalf("%s produced no candidates", m.Name())
		}
		prec, rec := evaluate(d, cands)
		t.Logf("%s: |C|=%d precision=%.3f recall=%.3f", m.Name(), len(cands), prec, rec)
		if prec < 0.4 || prec > 0.95 {
			t.Errorf("%s precision %.3f outside realistic band [0.4, 0.95]", m.Name(), prec)
		}
		if rec < 0.3 {
			t.Errorf("%s recall %.3f too low (< 0.3)", m.Name(), rec)
		}
	}
}

func TestMatchRespectsInteractionGraph(t *testing.T) {
	// Three schemas on a path: no candidates may appear between the two
	// unconnected end schemas.
	b := schema.NewBuilder()
	b.AddSchema("a", "customerName")
	b.AddSchema("b", "customer_name")
	b.AddSchema("c", "CustomerName")
	b.Connect(0, 1)
	b.Connect(1, 2)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cands := NewCOMALike().Match(net)
	for _, c := range cands {
		sa, sb := net.SchemaOf(c.A), net.SchemaOf(c.B)
		if (sa == 0 && sb == 2) || (sa == 2 && sb == 0) {
			t.Fatalf("candidate across non-edge: %v", c)
		}
	}
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2 (one per edge)", len(cands))
	}
}

// plainLeaf wraps a measure that ignores the corpus as a process leaf.
func plainLeaf(name string, fn func(a, b string) float64) *Leaf {
	return CorpusLeaf(name, func(*similarity.Corpus) func(a, b string) float64 { return fn })
}

func TestProcessOperators(t *testing.T) {
	b := schema.NewBuilder()
	b.AddSchema("l", "alpha", "beta")
	b.AddSchema("r", "alpha", "gamma")
	b.ConnectAll()
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	exact := plainLeaf("exact", func(a, b string) float64 {
		if a == b {
			return 1
		}
		return 0.3
	})
	t.Run("filter zeroes below threshold", func(t *testing.T) {
		p := NewProcess("p", &Filter{Child: exact, T: 0.5}, Threshold{T: 0.01})
		cands := p.Match(net)
		if len(cands) != 1 {
			t.Fatalf("got %d candidates, want only the exact match", len(cands))
		}
		if net.AttrName(cands[0].A) != "alpha" {
			t.Fatalf("wrong candidate: %v", cands[0])
		}
	})
	t.Run("boost sharpens", func(t *testing.T) {
		p := NewProcess("p", &Boost{Child: exact, Mid: 0.6, Steep: 10}, Threshold{T: 0.0})
		cands := p.Match(net)
		var hi, lo float64
		for _, c := range cands {
			if net.AttrName(c.A) == "alpha" && net.AttrName(c.B) == "alpha" {
				hi = c.Confidence
			} else {
				lo = c.Confidence
			}
		}
		if hi < 0.9 {
			t.Errorf("boost should push exact match toward 1, got %v", hi)
		}
		if lo > 0.1 {
			t.Errorf("boost should push weak scores toward 0, got %v", lo)
		}
	})
	t.Run("combine with max", func(t *testing.T) {
		zero := plainLeaf("zero", func(a, b string) float64 { return 0 })
		p := NewProcess("p", &Combine{Agg: MaxAgg, Children: []Node{zero, exact}}, Threshold{T: 0.9})
		cands := p.Match(net)
		if len(cands) != 1 {
			t.Fatalf("combine(max) got %d candidates, want 1", len(cands))
		}
	})
}
