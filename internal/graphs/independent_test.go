package graphs

import (
	"math/rand"
	"testing"
)

func TestMISPath(t *testing.T) {
	// Maximum independent set of P_n has ceil(n/2) vertices.
	for n := 1; n <= 9; n++ {
		g := Path(n)
		mis := g.MaximumIndependentSet()
		want := (n + 1) / 2
		if len(mis) != want {
			t.Errorf("P%d: |MIS| = %d, want %d", n, len(mis), want)
		}
		if !g.IsIndependentSet(mis) {
			t.Errorf("P%d: result not independent: %v", n, mis)
		}
	}
}

func TestMISCompleteGraph(t *testing.T) {
	g := Complete(7)
	mis := g.MaximumIndependentSet()
	if len(mis) != 1 {
		t.Fatalf("K7 MIS size = %d, want 1", len(mis))
	}
}

func TestMISRing(t *testing.T) {
	// MIS of C_n is floor(n/2).
	for _, n := range []int{3, 4, 5, 6, 9} {
		g := Ring(n)
		mis := g.MaximumIndependentSet()
		if len(mis) != n/2 {
			t.Errorf("C%d: |MIS| = %d, want %d", n, len(mis), n/2)
		}
		if !g.IsIndependentSet(mis) {
			t.Errorf("C%d: not independent", n)
		}
	}
}

func TestMISEmptyGraph(t *testing.T) {
	g := New(6)
	mis := g.MaximumIndependentSet()
	if len(mis) != 6 {
		t.Fatalf("edgeless MIS size = %d, want 6", len(mis))
	}
}

func TestMISZeroVertices(t *testing.T) {
	g := New(0)
	if got := g.MaximumIndependentSet(); len(got) != 0 {
		t.Fatalf("empty graph MIS = %v", got)
	}
}

// bruteMIS computes the maximum independent set size by exhaustive search.
func bruteMIS(g *Graph) int {
	n := g.NumVertices()
	best := 0
	for mask := 0; mask < 1<<uint(n); mask++ {
		var vs []int
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				vs = append(vs, v)
			}
		}
		if g.IsIndependentSet(vs) && len(vs) > best {
			best = len(vs)
		}
	}
	return best
}

func TestMISMatchesBruteForceOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(11)
		g := ErdosRenyi(n, 0.4, rng)
		mis := g.MaximumIndependentSet()
		if !g.IsIndependentSet(mis) {
			t.Fatalf("trial %d: result not independent", trial)
		}
		if want := bruteMIS(g); len(mis) != want {
			t.Fatalf("trial %d: |MIS| = %d, brute force = %d", trial, len(mis), want)
		}
	}
}

func TestGreedyIndependentSetIsMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		g := ErdosRenyi(n, 0.3, rng)
		set := g.GreedyIndependentSet(rng)
		if !g.IsIndependentSet(set) {
			t.Fatalf("trial %d: greedy set not independent", trial)
		}
		// Maximality: every vertex outside the set must have a neighbor
		// inside it.
		inSet := make(map[int]bool)
		for _, v := range set {
			inSet[v] = true
		}
		for v := 0; v < n; v++ {
			if inSet[v] {
				continue
			}
			hasNeighbor := false
			for _, u := range g.Neighbors(v) {
				if inSet[u] {
					hasNeighbor = true
					break
				}
			}
			if !hasNeighbor {
				t.Fatalf("trial %d: vertex %d could be added, set not maximal", trial, v)
			}
		}
	}
}

func TestGreedyNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(12)
		g := ErdosRenyi(n, 0.35, rng)
		exact := g.MaximumIndependentSet()
		greedy := g.GreedyIndependentSet(rng)
		if len(greedy) > len(exact) {
			t.Fatalf("trial %d: greedy %d > exact %d", trial, len(greedy), len(exact))
		}
	}
}
