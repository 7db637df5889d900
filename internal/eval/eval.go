// Package eval implements the evaluation measures of §VI-A: precision
// and recall against the selective matching, user effort, the K-L
// divergence of Equation 6 with its KL-ratio normalization, and small
// statistics helpers for multi-run curves.
package eval

import (
	"math"

	"schemanet/internal/schema"
)

// PrecisionRecall compares a predicted matching (given as candidate
// indices of net) against the selective matching M:
// Prec = |V ∩ M| / |V|, Rec = |V ∩ M| / |M|. An empty prediction has
// precision 1 by convention (nothing wrong was asserted) and recall 0;
// an empty ground truth yields recall 1.
func PrecisionRecall(net *schema.Network, predicted []int, gt *schema.Matching) (prec, rec float64) {
	correct := 0
	for _, i := range predicted {
		if gt.ContainsCorrespondence(net.Candidate(i)) {
			correct++
		}
	}
	prec = 1
	if len(predicted) > 0 {
		prec = float64(correct) / float64(len(predicted))
	}
	rec = 1
	if gt.Size() > 0 {
		rec = float64(correct) / float64(gt.Size())
	}
	return prec, rec
}

// klEps guards the divergence against zero denominators from finite
// sampling.
const klEps = 1e-9

// KLDivergence computes D(P‖Q) = Σ_c KL(p_c ‖ q_c) where each
// correspondence is a Bernoulli variable:
//
//	KL(p ‖ q) = p·log(p/q) + (1−p)·log((1−p)/(1−q)).
//
// Equation 6 of the paper prints only the first term; the sum of
// first terms alone can be negative for marginal (non-normalized)
// probabilities, so we use the full Bernoulli divergence, which is
// non-negative and zero iff P = Q (see DESIGN.md). Zero/one q values
// are clamped to avoid infinities from finite sampling.
func KLDivergence(p, q []float64) float64 {
	d := 0.0
	for c := range p {
		pc, qc := p[c], q[c]
		if qc < klEps {
			qc = klEps
		}
		if qc > 1-klEps {
			qc = 1 - klEps
		}
		if pc > 0 {
			d += pc * math.Log(pc/qc)
		}
		if pc < 1 {
			d += (1 - pc) * math.Log((1-pc)/(1-qc))
		}
	}
	return d
}

// KLRatio normalizes the divergence of the sampled distribution Q
// against the exact P by the divergence of the uninformed distribution
// U (u_c = 0.5, maximum entropy): KLratio = D(P‖Q) / D(P‖U). Values
// near 0 mean sampling captured the exact distribution; 1 means no
// better than ignorance. Returns 0 when D(P‖U) is 0 (P is itself
// uninformed).
func KLRatio(exact, approx []float64) float64 {
	u := make([]float64, len(exact))
	for i := range u {
		u[i] = 0.5
	}
	den := KLDivergence(exact, u)
	if den == 0 {
		return 0
	}
	return KLDivergence(exact, approx) / den
}

// Stats holds the mean and (population) standard deviation of a sample.
type Stats struct {
	Mean float64
	Std  float64
}

// MeanStd computes summary statistics; an empty input yields zeros.
func MeanStd(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		d := x - mean
		varSum += d * d
	}
	return Stats{Mean: mean, Std: math.Sqrt(varSum / float64(len(xs)))}
}

// Point is one (x, y) sample of a curve.
type Point struct {
	X, Y float64
}

// Curve is a sequence of points with ascending X.
type Curve []Point

// AUC returns the area under the curve via the trapezoid rule; the
// ablation benches use it to compare strategies with one number.
func AUC(c Curve) float64 {
	a := 0.0
	for i := 1; i < len(c); i++ {
		dx := c[i].X - c[i-1].X
		a += dx * (c[i].Y + c[i-1].Y) / 2
	}
	return a
}
