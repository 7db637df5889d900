// Package graphs provides the undirected-graph substrate used by the
// schema matching network: interaction-graph generation (Erdős–Rényi,
// complete, ring, …), simple-cycle enumeration for the cycle constraint,
// and maximum-independent-set solvers used to validate the instantiation
// heuristic (Theorem 1 of the paper reduces instantiation under the
// one-to-one constraint to maximum independent set).
package graphs

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is a simple undirected graph over vertices 0..n-1.
type Graph struct {
	n   int
	adj []map[int]bool
	m   int
}

// New returns an edgeless graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graphs: negative vertex count")
	}
	g := &Graph{n: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// AddVertex appends a new isolated vertex and returns its index.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, make(map[int]bool))
	g.n++
	return g.n - 1
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.m }

// AddEdge inserts the undirected edge {u, v}. Self-loops are rejected.
// Adding an existing edge is a no-op.
func (g *Graph) AddEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v {
		panic("graphs: self-loop")
	}
	if g.adj[u][v] {
		return
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
	g.m++
}

// RemoveEdge deletes the edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	if !g.adj[u][v] {
		return
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	g.m--
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	return g.adj[u][v]
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// Neighbors returns the neighbors of v in ascending order.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	out := make([]int, 0, len(g.adj[v]))
	//lint:sorted neighbors are collected and sorted (sort.Ints below) before returning
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Edge is an undirected edge with U < V.
type Edge struct{ U, V int }

// Edges returns all edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		//lint:sorted edges are collected and sorted lexicographically below before returning
		for v := range g.adj[u] {
			if u < v {
				out = append(out, Edge{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Clone returns an independent copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		//lint:sorted AddEdge inserts into adjacency sets; insertion order cannot affect the copy
		for v := range g.adj[u] {
			if u < v {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graphs: vertex %d out of range [0,%d)", v, g.n))
	}
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// ErdosRenyi returns a G(n, p) random graph: each of the n·(n−1)/2
// possible edges is present independently with probability p. This is
// the interaction-graph model the paper uses for the Figure 6 settings.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	if p < 0 || p > 1 {
		panic("graphs: edge probability out of [0,1]")
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// ErdosRenyiConnected returns a G(n, p) graph augmented with a uniformly
// random spanning tree so the result is always connected (matching
// networks are only meaningful on connected interaction graphs).
func ErdosRenyiConnected(n int, p float64, rng *rand.Rand) *Graph {
	g := ErdosRenyi(n, p, rng)
	if n <= 1 {
		return g
	}
	// Random permutation chain guarantees connectivity.
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(perm[i], perm[i+1])
	}
	return g
}

// ConnectedComponents returns the vertex sets of the connected
// components, each sorted, ordered by smallest contained vertex.
func (g *Graph) ConnectedComponents() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			//lint:sorted visit order only fills a seen-set and a component that is sorted below
			for u := range g.adj[v] {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether the graph has exactly one connected
// component (the empty graph is considered connected).
func (g *Graph) IsConnected() bool {
	return g.n == 0 || len(g.ConnectedComponents()) == 1
}

// BFSDistances returns the unweighted shortest-path distance from src to
// every vertex (-1 when unreachable).
func (g *Graph) BFSDistances(src int) []int {
	g.checkVertex(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		//lint:sorted BFS level order fixes every distance regardless of neighbor order
		for u := range g.adj[v] {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}
