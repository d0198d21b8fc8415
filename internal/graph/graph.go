// Package graph provides CSR graphs and deterministic synthetic generators
// standing in for the paper's input suite (Table IV). The generators control
// the properties the evaluation depends on — degree distribution, diameter,
// and locality — at sizes tractable for cycle-level simulation.
package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// CSR is a graph in Compressed Sparse Row format, the layout the paper's
// benchmarks traverse: Nodes[v]..Nodes[v+1] delimit v's slice of Edges.
type CSR struct {
	Name  string
	Nodes []int64 // length NumVertices+1
	Edges []int64
}

// NumVertices returns the vertex count.
func (g *CSR) NumVertices() int { return len(g.Nodes) - 1 }

// NumEdges returns the directed edge count.
func (g *CSR) NumEdges() int { return len(g.Edges) }

// AvgDegree returns the average out-degree.
func (g *CSR) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumVertices())
}

// Neighbors returns v's adjacency slice (aliases the Edges array).
func (g *CSR) Neighbors(v int) []int64 { return g.Edges[g.Nodes[v]:g.Nodes[v+1]] }

func (g *CSR) String() string {
	return fmt.Sprintf("%s: %d vertices, %d edges, avg deg %.1f",
		g.Name, g.NumVertices(), g.NumEdges(), g.AvgDegree())
}

// FromAdjacency builds a CSR from an adjacency list, deduplicating and
// sorting each neighbor list.
func FromAdjacency(name string, adj [][]int64) *CSR {
	g := &CSR{Name: name, Nodes: make([]int64, len(adj)+1)}
	for v, ns := range adj {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		prev := int64(-1)
		for _, n := range ns {
			if n == prev || n == int64(v) {
				continue
			}
			prev = n
			g.Edges = append(g.Edges, n)
		}
		g.Nodes[v+1] = int64(len(g.Edges))
	}
	return g
}

// symmetrize adds reverse edges.
func symmetrize(adj [][]int64) {
	type edge struct{ u, v int64 }
	var rev []edge
	for u, ns := range adj {
		for _, v := range ns {
			rev = append(rev, edge{v, int64(u)})
		}
	}
	for _, e := range rev {
		adj[e.u] = append(adj[e.u], e.v)
	}
}

// Grid generates a road-network-like graph: a w x h grid with a fraction of
// edges removed to create irregular detours. Road networks have low average
// degree (~2-3) and very high diameter, which is what makes BFS on them
// latency-bound. Vertex ids are randomly permuted: real road-network inputs
// are not laid out in traversal order, so neighbor accesses have poor
// spatial locality.
func Grid(name string, w, h int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	n := w * h
	adj := make([][]int64, n)
	perm := rng.Perm(n)
	id := func(x, y int) int64 { return int64(perm[y*w+x]) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := id(x, y)
			// Drop ~10% of grid edges to create irregular detours.
			if x+1 < w && rng.Intn(10) != 0 {
				adj[v] = append(adj[v], id(x+1, y))
			}
			if y+1 < h && rng.Intn(10) != 0 {
				adj[v] = append(adj[v], id(x, y+1))
			}
		}
	}
	symmetrize(adj)
	return FromAdjacency(name, adj)
}

// PowerLaw generates an internet-like graph by preferential attachment
// (Barabási–Albert): heavy-tailed degrees, low diameter. m is the number of
// edges added per new vertex.
func PowerLaw(name string, n, m int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int64, n)
	// endpoint pool for preferential attachment
	pool := make([]int64, 0, 2*n*m)
	start := m + 1
	if start > n {
		start = n
	}
	for v := 0; v < start; v++ {
		for u := 0; u < v; u++ {
			adj[v] = append(adj[v], int64(u))
			pool = append(pool, int64(v), int64(u))
		}
	}
	for v := start; v < n; v++ {
		for k := 0; k < m; k++ {
			var u int64
			if len(pool) > 0 {
				u = pool[rng.Intn(len(pool))]
			} else {
				u = int64(rng.Intn(v))
			}
			if u == int64(v) {
				continue
			}
			adj[v] = append(adj[v], u)
			pool = append(pool, int64(v), u)
		}
	}
	symmetrize(adj)
	return FromAdjacency(name, adj)
}

// Uniform generates an Erdős–Rényi-style graph with given average degree.
func Uniform(name string, n int, avgDeg float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int64, n)
	edges := int(float64(n) * avgDeg / 2)
	for i := 0; i < edges; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		adj[u] = append(adj[u], int64(v))
	}
	symmetrize(adj)
	return FromAdjacency(name, adj)
}

// Trace generates a "dynamic simulation trace"-like graph (hugetrace): a long
// path of clusters, giving moderate degree and very high diameter.
func Trace(name string, clusters, clusterSize int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	n := clusters * clusterSize
	adj := make([][]int64, n)
	for c := 0; c < clusters; c++ {
		base := c * clusterSize
		// ring within the cluster plus a chord
		for i := 0; i < clusterSize; i++ {
			v := base + i
			adj[v] = append(adj[v], int64(base+(i+1)%clusterSize))
			if clusterSize > 3 {
				adj[v] = append(adj[v], int64(base+rng.Intn(clusterSize)))
			}
		}
		// link to next cluster
		if c+1 < clusters {
			adj[base] = append(adj[base], int64(base+clusterSize))
		}
	}
	symmetrize(adj)
	return FromAdjacency(name, adj)
}

// Input describes one named benchmark input (Table IV rows).
type Input struct {
	Domain string
	Graph  *CSR
}

// TrainingInputs returns the scaled-down training suite: an internet-like
// graph and a road-network-like graph (internet / USA-road-d-NY in the
// paper).
func TrainingInputs() []Input {
	return []Input{
		{Domain: "Training internet graph", Graph: PowerLaw("internet", 3000, 2, 11)},
		{Domain: "Training road network", Graph: Grid("road-ny", 60, 60, 12)},
	}
}

// TestInputs returns the scaled-down test suite mirroring Table IV's domains:
// collaboration (power-law, mid degree), dynamic simulation trace (high
// diameter), circuit (uniform), internet (heavy power-law), road (grid).
func TestInputs() []Input {
	return []Input{
		{Domain: "Human collaboration", Graph: PowerLaw("coauthors", 6000, 3, 21)},
		{Domain: "Dynamic simulation", Graph: Trace("hugetrace", 220, 24, 22)},
		{Domain: "Circuit simulation", Graph: Uniform("freescale", 8000, 2.8, 23)},
		{Domain: "Internet graph", Graph: PowerLaw("skitter", 5000, 6, 24)},
		{Domain: "Road network", Graph: Grid("road-usa", 110, 110, 25)},
	}
}
