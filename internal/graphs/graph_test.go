package graphs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestAddHasRemoveEdge(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} missing")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	g.AddEdge(0, 1) // duplicate is a no-op
	if g.NumEdges() != 2 {
		t.Fatalf("duplicate AddEdge changed count to %d", g.NumEdges())
	}
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Fatal("edge {0,1} still present after RemoveEdge")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	g.RemoveEdge(0, 4) // absent edge is a no-op
	if g.NumEdges() != 1 {
		t.Fatal("removing absent edge changed count")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(2,2) should panic")
		}
	}()
	New(5).AddEdge(2, 2)
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := Star(5)
	if g.Degree(0) != 4 {
		t.Fatalf("center degree = %d, want 4", g.Degree(0))
	}
	if g.Degree(3) != 1 {
		t.Fatalf("leaf degree = %d, want 1", g.Degree(3))
	}
	if got, want := g.Neighbors(0), []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(0) = %v, want %v", got, want)
	}
}

func TestCompleteGraph(t *testing.T) {
	g := Complete(6)
	if got, want := g.NumEdges(), 15; got != want {
		t.Fatalf("K6 edges = %d, want %d", got, want)
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 5 {
			t.Fatalf("K6 degree(%d) = %d, want 5", v, g.Degree(v))
		}
	}
}

func TestRingAndPath(t *testing.T) {
	r := Ring(5)
	if r.NumEdges() != 5 {
		t.Fatalf("C5 edges = %d, want 5", r.NumEdges())
	}
	p := Path(5)
	if p.NumEdges() != 4 {
		t.Fatalf("P5 edges = %d, want 4", p.NumEdges())
	}
	if !r.IsConnected() || !p.IsConnected() {
		t.Fatal("ring/path should be connected")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(2, 0)
	want := []Edge{{0, 2}, {1, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges() = %v, want %v", got, want)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Ring(4)
	c := g.Clone()
	c.AddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Fatal("mutating clone changed original")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	comps := g.ConnectedComponents()
	want := [][]int{{0, 1, 2}, {3}, {4, 5}, {6}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("components = %v, want %v", comps, want)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	got := g.BFSDistances(0)
	want := []int{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BFS distances = %v, want %v", got, want)
	}
	g2 := New(3)
	g2.AddEdge(0, 1)
	if d := g2.BFSDistances(0); d[2] != -1 {
		t.Fatalf("unreachable vertex distance = %d, want -1", d[2])
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g0 := ErdosRenyi(10, 0, rng)
	if g0.NumEdges() != 0 {
		t.Fatalf("G(10,0) has %d edges", g0.NumEdges())
	}
	g1 := ErdosRenyi(10, 1, rng)
	if g1.NumEdges() != 45 {
		t.Fatalf("G(10,1) has %d edges, want 45", g1.NumEdges())
	}
}

func TestErdosRenyiDensityRoughlyMatchesP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, p := 60, 0.3
	total := 0
	trials := 20
	for i := 0; i < trials; i++ {
		total += ErdosRenyi(n, p, rng).NumEdges()
	}
	maxEdges := n * (n - 1) / 2
	density := float64(total) / float64(trials*maxEdges)
	if density < p-0.05 || density > p+0.05 {
		t.Fatalf("empirical density %.3f too far from p=%.2f", density, p)
	}
}

func TestErdosRenyiConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 25; i++ {
		g := ErdosRenyiConnected(20, 0.02, rng)
		if !g.IsConnected() {
			t.Fatalf("trial %d: graph not connected", i)
		}
	}
}

func TestTriangleEnumeration(t *testing.T) {
	g := Complete(4)
	tris := g.Triangles()
	if len(tris) != 4 { // C(4,3)
		t.Fatalf("K4 has %d triangles, want 4", len(tris))
	}
	for _, c := range tris {
		if len(c) != 3 {
			t.Fatalf("triangle of length %d", len(c))
		}
		if c[0] > c[1] || c[1] > c[2] {
			// canonical: min first, orientation fixed; for triangles this
			// means strictly increasing order.
			t.Fatalf("non-canonical triangle %v", c)
		}
	}
}

func TestSimpleCyclesCountsOnK5(t *testing.T) {
	// K5 has C(5,3)=10 triangles, C(5,4)*3 = 15 4-cycles,
	// and 4!/2 = 12 5-cycles.
	g := Complete(5)
	count := func(cycles []Cycle, l int) int {
		c := 0
		for _, cy := range cycles {
			if len(cy) == l {
				c++
			}
		}
		return c
	}
	all := g.SimpleCycles(5)
	if got := count(all, 3); got != 10 {
		t.Errorf("K5 triangles = %d, want 10", got)
	}
	if got := count(all, 4); got != 15 {
		t.Errorf("K5 4-cycles = %d, want 15", got)
	}
	if got := count(all, 5); got != 12 {
		t.Errorf("K5 5-cycles = %d, want 12", got)
	}
	if got := len(g.SimpleCycles(3)); got != 10 {
		t.Errorf("SimpleCycles(3) on K5 = %d cycles, want 10", got)
	}
}

func TestSimpleCyclesOnRing(t *testing.T) {
	g := Ring(6)
	if got := len(g.SimpleCycles(5)); got != 0 {
		t.Fatalf("C6 has no cycles shorter than 6, got %d", got)
	}
	cycles := g.SimpleCycles(6)
	if len(cycles) != 1 {
		t.Fatalf("C6 should contain exactly one simple cycle, got %d", len(cycles))
	}
	if len(cycles[0]) != 6 {
		t.Fatalf("cycle length = %d, want 6", len(cycles[0]))
	}
}

func TestSimpleCyclesNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := ErdosRenyi(9, 0.5, rng)
	cycles := g.SimpleCycles(5)
	seen := make(map[string]bool)
	for _, c := range cycles {
		key := ""
		for _, v := range c {
			key += string(rune('a' + v))
		}
		if seen[key] {
			t.Fatalf("duplicate canonical cycle %v", c)
		}
		seen[key] = true
		// Validate edges exist.
		for i := range c {
			if !g.HasEdge(c[i], c[(i+1)%len(c)]) {
				t.Fatalf("cycle %v uses missing edge", c)
			}
		}
	}
}

// bruteCycles lists simple cycles of length 3..maxLen by enumerating
// every vertex subset and collecting the Hamiltonian cycles of that
// subset (each undirected cycle once: smallest vertex first, canonical
// direction). Chords in the induced subgraph do not disqualify a cycle.
func bruteCycles(g *Graph, maxLen int) []Cycle {
	n := g.NumVertices()
	var out []Cycle
	for mask := 0; mask < 1<<uint(n); mask++ {
		var vs []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				vs = append(vs, v)
			}
		}
		if len(vs) < 3 || len(vs) > maxLen {
			continue
		}
		// Fix vs[0] (the smallest) as the start; permute the rest.
		rest := vs[1:]
		perm := make([]int, len(rest))
		var permute func(used []bool, depth int)
		permute = func(used []bool, depth int) {
			if depth == len(rest) {
				// Canonical direction: second vertex < last vertex.
				if perm[0] > perm[len(perm)-1] {
					return
				}
				// Check the cycle edges vs[0]→perm…→vs[0].
				prev := vs[0]
				for _, v := range perm {
					if !g.HasEdge(prev, v) {
						return
					}
					prev = v
				}
				if g.HasEdge(prev, vs[0]) {
					out = append(out, append(Cycle{vs[0]}, perm...))
				}
				return
			}
			for i, v := range rest {
				if used[i] {
					continue
				}
				used[i] = true
				perm[depth] = v
				permute(used, depth+1)
				used[i] = false
			}
		}
		permute(make([]bool, len(rest)), 0)
	}
	return out
}

func TestSimpleCyclesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(3)
		g := ErdosRenyi(n, 0.5, rng)
		for _, maxLen := range []int{3, 4, n} {
			got := g.SimpleCycles(maxLen)
			want := bruteCycles(g, maxLen)
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d maxLen=%d: SimpleCycles=%d brute=%d",
					trial, n, maxLen, len(got), len(want))
			}
			// Equal counts and every listed cycle in the brute-force set
			// (neither list repeats a cycle) means the same cycles.
			seen := make(map[string]bool, len(want))
			for _, c := range want {
				seen[fmt.Sprint(c)] = true
			}
			for i, c := range got {
				if !seen[fmt.Sprint(c)] {
					t.Fatalf("trial %d n=%d maxLen=%d: cycle %d = %v not in the brute-force list",
						trial, n, maxLen, i, c)
				}
			}
		}
	}
}

func TestCyclesThroughEdge(t *testing.T) {
	g := Complete(4)
	tris := g.Triangles()
	through := CyclesThroughEdge(tris, 0, 1)
	if len(through) != 2 { // triangles {0,1,2} and {0,1,3}
		t.Fatalf("cycles through {0,1} = %d, want 2", len(through))
	}
}

// Ring returns the cycle graph C_n (n >= 3).
func Ring(n int) *Graph {
	if n < 3 {
		panic("graphs: ring needs at least 3 vertices")
	}
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// Path returns the path graph P_n.
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Star returns the star graph with vertex 0 as center.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// CyclesThroughEdge filters cycles to those that traverse edge {u, v}.
func CyclesThroughEdge(cycles []Cycle, u, v int) []Cycle {
	var out []Cycle
	for _, c := range cycles {
		for i := range c {
			a, b := c[i], c[(i+1)%len(c)]
			if (a == u && b == v) || (a == v && b == u) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}
