package eval

import (
	"math"
	"testing"

	"schemanet/internal/schema"
)

func testNet(t *testing.T) *schema.Network {
	t.Helper()
	b := schema.NewBuilder()
	b.AddSchema("a", "x1", "x2", "x3")
	b.AddSchema("b", "y1", "y2", "y3")
	b.ConnectAll()
	// Candidates 0..3 (sorted by attribute pair).
	b.AddCorrespondence(0, 3, 0.9) // x1-y1: correct
	b.AddCorrespondence(0, 4, 0.5) // x1-y2: wrong
	b.AddCorrespondence(1, 4, 0.8) // x2-y2: correct
	b.AddCorrespondence(2, 5, 0.7) // x3-y3: correct but never predicted
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func groundTruth() *schema.Matching {
	gt := schema.NewMatching()
	gt.Add(0, 3)
	gt.Add(1, 4)
	gt.Add(2, 5)
	return gt
}

func TestPrecisionRecall(t *testing.T) {
	net := testNet(t)
	gt := groundTruth()
	// Predict candidates {x1-y1, x1-y2}: one correct of two; recall 1/3.
	i1 := net.CandidateIndex(0, 3)
	i2 := net.CandidateIndex(0, 4)
	prec, rec := PrecisionRecall(net, []int{i1, i2}, gt)
	if math.Abs(prec-0.5) > 1e-9 {
		t.Errorf("precision = %v, want 0.5", prec)
	}
	if math.Abs(rec-1.0/3.0) > 1e-9 {
		t.Errorf("recall = %v, want 1/3", rec)
	}
}

func TestPrecisionRecallEdgeCases(t *testing.T) {
	net := testNet(t)
	gt := groundTruth()
	prec, rec := PrecisionRecall(net, nil, gt)
	if prec != 1 || rec != 0 {
		t.Errorf("empty prediction: prec=%v rec=%v, want 1/0", prec, rec)
	}
	empty := schema.NewMatching()
	prec, rec = PrecisionRecall(net, nil, empty)
	if prec != 1 || rec != 1 {
		t.Errorf("empty everything: prec=%v rec=%v, want 1/1", prec, rec)
	}
}

func TestF1(t *testing.T) {
	if got := F1(0.5, 0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("F1(0.5,0.5) = %v", got)
	}
	if got := F1(0, 0); got != 0 {
		t.Errorf("F1(0,0) = %v, want 0", got)
	}
	if got := F1(1, 1); got != 1 {
		t.Errorf("F1(1,1) = %v, want 1", got)
	}
}

func TestEffort(t *testing.T) {
	if got := Effort(25, 100); got != 0.25 {
		t.Errorf("Effort = %v, want 0.25", got)
	}
	if got := Effort(5, 0); got != 0 {
		t.Errorf("Effort with no candidates = %v, want 0", got)
	}
}

func TestKLDivergenceProperties(t *testing.T) {
	p := []float64{0.8, 0.2, 0.5}
	if got := KLDivergence(p, p); math.Abs(got) > 1e-12 {
		t.Errorf("D(P||P) = %v, want 0", got)
	}
	q := []float64{0.5, 0.5, 0.5}
	if got := KLDivergence(p, q); got <= 0 {
		t.Errorf("D(P||U) = %v, want > 0", got)
	}
	// The Bernoulli divergence is non-negative for any probability
	// vectors (unlike the single-term form printed in Eq. 6).
	for _, pair := range [][2][]float64{
		{{0, 0}, {0.5, 0.5}},
		{{0.5, 0.5}, {0.9, 0.9}},
		{{0.2, 0.8}, {0.8, 0.2}},
	} {
		if got := KLDivergence(pair[0], pair[1]); got < 0 {
			t.Errorf("D(%v||%v) = %v, want >= 0", pair[0], pair[1], got)
		}
	}
	// Zero/one q with mismatched p stays finite (clamped).
	if got := KLDivergence([]float64{0.5}, []float64{0}); math.IsInf(got, 1) {
		t.Error("zero-Q divergence must be clamped, got +Inf")
	}
	if got := KLDivergence([]float64{0.5}, []float64{1}); math.IsInf(got, 1) {
		t.Error("one-Q divergence must be clamped, got +Inf")
	}
}

func TestKLRatio(t *testing.T) {
	exact := []float64{0.9, 0.1, 0.7}
	// A perfect approximation has ratio 0.
	if got := KLRatio(exact, exact); math.Abs(got) > 1e-12 {
		t.Errorf("KLRatio(P,P) = %v, want 0", got)
	}
	// The uninformed approximation has ratio 1.
	u := []float64{0.5, 0.5, 0.5}
	if got := KLRatio(exact, u); math.Abs(got-1) > 1e-9 {
		t.Errorf("KLRatio(P,U) = %v, want 1", got)
	}
	// A slightly-off approximation lands strictly between.
	closeApprox := []float64{0.85, 0.15, 0.65}
	if got := KLRatio(exact, closeApprox); got <= 0 || got >= 1 {
		t.Errorf("KLRatio of close approx = %v, want in (0,1)", got)
	}
	// Uninformed exact distribution yields 0 (degenerate denominator).
	if got := KLRatio(u, exact); got != 0 {
		t.Errorf("KLRatio with uninformed exact = %v, want 0", got)
	}
}

func TestMeanStd(t *testing.T) {
	s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(s.Mean-5) > 1e-9 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if math.Abs(s.Std-2) > 1e-9 {
		t.Errorf("Std = %v, want 2", s.Std)
	}
	z := MeanStd(nil)
	if z.Mean != 0 || z.Std != 0 {
		t.Errorf("MeanStd(nil) = %+v, want zeros", z)
	}
}

func TestMeanCurves(t *testing.T) {
	a := Curve{{0, 1}, {1, 3}}
	b := Curve{{0, 3}, {1, 5}}
	m := MeanCurves([]Curve{a, b})
	if len(m) != 2 {
		t.Fatalf("len = %d", len(m))
	}
	if m[0].Y != 2 || m[1].Y != 4 {
		t.Fatalf("mean curve = %v", m)
	}
	if m[0].X != 0 || m[1].X != 1 {
		t.Fatalf("X values scrambled: %v", m)
	}
	if MeanCurves(nil) != nil {
		t.Fatal("MeanCurves(nil) should be nil")
	}
}

func TestAUC(t *testing.T) {
	c := Curve{{0, 0}, {1, 1}, {2, 1}}
	// Triangle (0.5) + rectangle (1).
	if got := AUC(c); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("AUC = %v, want 1.5", got)
	}
	if got := AUC(Curve{{0, 5}}); got != 0 {
		t.Errorf("single-point AUC = %v, want 0", got)
	}
}

// F1 is the harmonic mean of precision and recall (0 when both are 0).
func F1(prec, rec float64) float64 {
	if prec+rec == 0 {
		return 0
	}
	return 2 * prec * rec / (prec + rec)
}

// Effort is the user-effort measure E = |F+ ∪ F−| / |C|.
func Effort(assertions, numCandidates int) float64 {
	if numCandidates == 0 {
		return 0
	}
	return float64(assertions) / float64(numCandidates)
}

// MeanCurves averages multiple runs of the same experiment point-wise.
// All curves must have the same length and aligned X values (the
// experiments sample on a fixed effort grid).
func MeanCurves(curves []Curve) Curve {
	if len(curves) == 0 {
		return nil
	}
	n := len(curves[0])
	out := make(Curve, n)
	for i := 0; i < n; i++ {
		ys := make([]float64, 0, len(curves))
		for _, c := range curves {
			ys = append(ys, c[i].Y)
		}
		out[i] = Point{X: curves[0][i].X, Y: MeanStd(ys).Mean}
	}
	return out
}
