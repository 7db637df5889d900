package matcher

// Selector extracts candidate correspondences from a similarity matrix.
// Selection is the final step of both composite matchers (COMA's
// selection strategies, AMC's selection operators).
type Selector interface {
	Name() string
	Select(m *Matrix) []Cell
}

// Threshold selects every cell with similarity >= T.
type Threshold struct{ T float64 }

// Name implements Selector.
func (s Threshold) Name() string { return "threshold" }

// Select implements Selector.
func (s Threshold) Select(m *Matrix) []Cell {
	var out []Cell
	rows, cols := m.Dims()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := m.At(i, j); v >= s.T {
				out = append(out, Cell{Row: i, Col: j, Confidence: v})
			}
		}
	}
	return out
}

// MaxDelta selects, per row, all cells within Delta of the row maximum,
// subject to the absolute floor T. This is the max-delta strategy of
// matching-process frameworks: it keeps near-ties as competing
// candidates, which is exactly what produces one-to-one violations for
// the network to resolve.
type MaxDelta struct {
	Delta float64
	T     float64
}

// Name implements Selector.
func (s MaxDelta) Name() string { return "max-delta" }

// Select implements Selector.
func (s MaxDelta) Select(m *Matrix) []Cell {
	var out []Cell
	rows, cols := m.Dims()
	for i := 0; i < rows; i++ {
		max := m.RowMax(i)
		if max < s.T {
			continue
		}
		for j := 0; j < cols; j++ {
			if v := m.At(i, j); v >= s.T && v >= max-s.Delta {
				out = append(out, Cell{Row: i, Col: j, Confidence: v})
			}
		}
	}
	return out
}
