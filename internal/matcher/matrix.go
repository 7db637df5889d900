// Package matcher implements the automatic schema matching substrate the
// paper takes as input (§I, §VI-A): first-line name matchers built on
// string similarity, and two composite matchers that play the roles of
// COMA++ and AMC in the experiments — a parallel composite matcher with
// score aggregation ("COMA-like") and a process-tree matcher with
// filtering and boosting operators ("AMC-like"). Both emit candidate
// correspondences with confidence values in [0, 1].
package matcher

import (
	"fmt"

	"schemanet/internal/schema"
)

// Matrix is a dense similarity matrix between the attributes of two
// schemas: rows index the first schema's attributes, columns the
// second's.
type Matrix struct {
	Rows []schema.AttrID
	Cols []schema.AttrID
	vals []float64
}

// NewMatrix returns a zero matrix over the given attribute lists.
func NewMatrix(rows, cols []schema.AttrID) *Matrix {
	return &Matrix{
		Rows: rows,
		Cols: cols,
		vals: make([]float64, len(rows)*len(cols)),
	}
}

// At returns the similarity of rows[i] and cols[j].
func (m *Matrix) At(i, j int) float64 { return m.vals[i*len(m.Cols)+j] }

// Set stores the similarity of rows[i] and cols[j].
func (m *Matrix) Set(i, j int, v float64) {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	m.vals[i*len(m.Cols)+j] = v
}

// Dims returns the matrix dimensions (rows, cols).
func (m *Matrix) Dims() (int, int) { return len(m.Rows), len(m.Cols) }

// RowMax returns the maximum value in row i (0 for empty rows).
func (m *Matrix) RowMax(i int) float64 {
	best := 0.0
	for j := range m.Cols {
		if v := m.At(i, j); v > best {
			best = v
		}
	}
	return best
}

// ColMax returns the maximum value in column j (0 for empty columns).
func (m *Matrix) ColMax(j int) float64 {
	best := 0.0
	for i := range m.Rows {
		if v := m.At(i, j); v > best {
			best = v
		}
	}
	return best
}

// Apply replaces every cell with fn(cell).
func (m *Matrix) Apply(fn func(v float64) float64) {
	for k, v := range m.vals {
		nv := fn(v)
		if nv < 0 {
			nv = 0
		}
		if nv > 1 {
			nv = 1
		}
		m.vals[k] = nv
	}
}

// Clone returns an independent copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.vals, m.vals)
	return c
}

func (m *Matrix) String() string {
	r, c := m.Dims()
	return fmt.Sprintf("Matrix(%dx%d)", r, c)
}

// Cell is one selected matrix cell: a proposed correspondence with its
// confidence.
type Cell struct {
	Row, Col   int
	Confidence float64
}

// Aggregator combines the per-measure scores of one attribute pair into
// a single similarity. The weights slice is parallel to scores;
// aggregators that ignore weights accept nil.
type Aggregator func(scores, weights []float64) float64

// AverageAgg is the unweighted mean.
func AverageAgg(scores, _ []float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range scores {
		s += v
	}
	return s / float64(len(scores))
}

// WeightedAgg is the weighted mean; nil or zero-sum weights degrade to
// the unweighted mean.
func WeightedAgg(scores, weights []float64) float64 {
	if len(weights) != len(scores) {
		return AverageAgg(scores, nil)
	}
	num, den := 0.0, 0.0
	for i, v := range scores {
		num += v * weights[i]
		den += weights[i]
	}
	if den == 0 {
		return AverageAgg(scores, nil)
	}
	return num / den
}

// MaxAgg is the maximum score.
func MaxAgg(scores, _ []float64) float64 {
	best := 0.0
	for _, v := range scores {
		if v > best {
			best = v
		}
	}
	return best
}
