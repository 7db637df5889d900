package graphs

import (
	"math/rand"
	"sort"
)

// MaximumIndependentSet returns a maximum independent set of g, computed
// exactly by branch and bound. It is exponential in the worst case and
// intended for the small conflict graphs used to validate the
// instantiation heuristic (Theorem 1); use GreedyIndependentSet for large
// inputs.
func (g *Graph) MaximumIndependentSet() []int {
	alive := make([]bool, g.n)
	for i := range alive {
		alive[i] = true
	}
	best := make([]int, 0)
	cur := make([]int, 0)

	deg := func(v int) int {
		d := 0
		//lint:sorted counts alive neighbors; a count is order-insensitive
		for u := range g.adj[v] {
			if alive[u] {
				d++
			}
		}
		return d
	}

	var countAlive func() int
	countAlive = func() int {
		c := 0
		for _, a := range alive {
			if a {
				c++
			}
		}
		return c
	}

	var branch func()
	branch = func() {
		// Reduction: repeatedly take vertices of alive-degree 0 or 1
		// (always safe for a maximum independent set).
		type undo struct {
			v     int
			taken bool
			rem   []int
		}
		var undos []undo
		for {
			progress := false
			for v := 0; v < g.n; v++ {
				if !alive[v] {
					continue
				}
				d := deg(v)
				if d == 0 {
					alive[v] = false
					cur = append(cur, v)
					undos = append(undos, undo{v: v, taken: true})
					progress = true
				} else if d == 1 {
					var rem []int
					//lint:sorted d == 1 guarantees exactly one alive neighbor is collected
					for u := range g.adj[v] {
						if alive[u] {
							alive[u] = false
							rem = append(rem, u)
						}
					}
					alive[v] = false
					cur = append(cur, v)
					undos = append(undos, undo{v: v, taken: true, rem: rem})
					progress = true
				}
			}
			if !progress {
				break
			}
		}
		defer func() {
			for i := len(undos) - 1; i >= 0; i-- {
				u := undos[i]
				alive[u.v] = true
				for _, r := range u.rem {
					alive[r] = true
				}
				if u.taken {
					cur = cur[:len(cur)-1]
				}
			}
		}()

		remaining := countAlive()
		if remaining == 0 {
			if len(cur) > len(best) {
				best = append(best[:0], cur...)
			}
			return
		}
		if len(cur)+remaining <= len(best) {
			return // bound: cannot beat the incumbent
		}

		// Branch on a maximum-degree vertex.
		pick, maxd := -1, -1
		for v := 0; v < g.n; v++ {
			if alive[v] {
				if d := deg(v); d > maxd {
					pick, maxd = v, d
				}
			}
		}

		// Branch 1: include pick (remove it and its neighbors).
		var removed []int
		alive[pick] = false
		//lint:sorted removes a neighbor set; flag flips and the undo restore are commutative
		for u := range g.adj[pick] {
			if alive[u] {
				alive[u] = false
				removed = append(removed, u)
			}
		}
		cur = append(cur, pick)
		branch()
		cur = cur[:len(cur)-1]
		for _, u := range removed {
			alive[u] = true
		}

		// Branch 2: exclude pick.
		branch()
		alive[pick] = true
	}

	branch()
	sort.Ints(best)
	return best
}

// GreedyIndependentSet returns a maximal (not necessarily maximum)
// independent set using the min-degree greedy heuristic with random
// tie-breaking.
func (g *Graph) GreedyIndependentSet(rng *rand.Rand) []int {
	alive := make([]bool, g.n)
	degree := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		alive[v] = true
		degree[v] = g.Degree(v)
	}
	remaining := g.n
	var out []int
	for remaining > 0 {
		// Pick min alive degree, breaking ties uniformly at random.
		minDeg := -1
		var ties []int
		for v := 0; v < g.n; v++ {
			if !alive[v] {
				continue
			}
			switch {
			case minDeg < 0 || degree[v] < minDeg:
				minDeg = degree[v]
				ties = ties[:0]
				ties = append(ties, v)
			case degree[v] == minDeg:
				ties = append(ties, v)
			}
		}
		pick := ties[0]
		if rng != nil && len(ties) > 1 {
			pick = ties[rng.Intn(len(ties))]
		}
		out = append(out, pick)
		// Remove pick and neighbors.
		kill := []int{pick}
		//lint:sorted collects a removal set; the per-vertex removals below are commutative
		for u := range g.adj[pick] {
			if alive[u] {
				kill = append(kill, u)
			}
		}
		for _, v := range kill {
			if !alive[v] {
				continue
			}
			alive[v] = false
			remaining--
			//lint:sorted decrements neighbor degrees; the decrements are commutative
			for u := range g.adj[v] {
				if alive[u] {
					degree[u]--
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// IsIndependentSet reports whether vs induces no edges in g.
func (g *Graph) IsIndependentSet(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}
