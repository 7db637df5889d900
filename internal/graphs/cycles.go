package graphs

import "sort"

// Cycle is a simple cycle given as a vertex sequence v0, v1, …, vk−1 with
// edges {v_i, v_{i+1 mod k}}. Cycles are stored in canonical form: the
// smallest vertex first, and the second vertex smaller than the last, so
// each undirected cycle appears exactly once.
type Cycle []int

// SimpleCycles enumerates all simple cycles of length 3..maxLen in
// canonical form. The cycle constraint of the matching network is checked
// along these schema cycles; maxLen bounds the (exponential) enumeration.
func (g *Graph) SimpleCycles(maxLen int) []Cycle {
	if maxLen < 3 {
		return nil
	}
	var out []Cycle
	path := make([]int, 0, maxLen)
	inPath := make([]bool, g.n)
	// The DFS revisits each vertex once per path through it; sorting its
	// adjacency once up front keeps the visits allocation-free.
	adj := make([][]int, g.n)
	for v := range adj {
		adj[v] = g.Neighbors(v)
	}

	var dfs func(start, v int)
	dfs = func(start, v int) {
		path = append(path, v)
		inPath[v] = true
		for _, u := range adj[v] {
			if u == start && len(path) >= 3 {
				// Canonical: start is the minimum (guaranteed since we
				// only visit vertices > start), and orientation fixed by
				// path[1] < path[len-1] to drop the mirror image.
				if path[1] < path[len(path)-1] {
					c := make(Cycle, len(path))
					copy(c, path)
					out = append(out, c)
				}
				continue
			}
			if u <= start || inPath[u] || len(path) >= maxLen {
				continue
			}
			dfs(start, u)
		}
		inPath[v] = false
		path = path[:len(path)-1]
	}

	for s := 0; s < g.n; s++ {
		dfs(s, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// Triangles returns all 3-cycles. Equivalent to SimpleCycles(3) but kept
// as a convenience for the common constraint configuration.
func (g *Graph) Triangles() []Cycle { return g.SimpleCycles(3) }
