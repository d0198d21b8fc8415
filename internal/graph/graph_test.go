package graph

import (
	"testing"
	"testing/quick"
)

// csrWellFormed checks the structural CSR invariants.
func csrWellFormed(g *CSR) bool {
	n := g.NumVertices()
	if g.Nodes[0] != 0 || g.Nodes[n] != int64(len(g.Edges)) {
		return false
	}
	for v := 0; v < n; v++ {
		if g.Nodes[v] > g.Nodes[v+1] {
			return false
		}
		prev := int64(-1)
		for _, ngh := range g.Neighbors(v) {
			if ngh < 0 || ngh >= int64(n) || ngh == int64(v) || ngh == prev {
				return false
			}
			prev = ngh
		}
	}
	return true
}

// symmetric checks that every edge has a reverse edge.
func symmetric(g *CSR) bool {
	has := func(u, v int64) bool {
		for _, n := range g.Neighbors(int(u)) {
			if n == v {
				return true
			}
		}
		return false
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if !has(u, int64(v)) {
				return false
			}
		}
	}
	return true
}

func TestGeneratorsWellFormed(t *testing.T) {
	gs := []*CSR{
		Grid("g", 10, 12, 1),
		PowerLaw("p", 300, 3, 2),
		Uniform("u", 200, 3.0, 3),
		Trace("t", 8, 10, 4),
	}
	for _, g := range gs {
		if !csrWellFormed(g) {
			t.Errorf("%s: malformed CSR", g.Name)
		}
		if !symmetric(g) {
			t.Errorf("%s: not symmetric", g.Name)
		}
		if g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", g.Name)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := PowerLaw("a", 200, 2, 7)
	b := PowerLaw("a", 200, 2, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must give the same graph")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("edge lists differ")
		}
	}
	c := PowerLaw("a", 200, 2, 8)
	same := c.NumEdges() == a.NumEdges()
	if same {
		for i := range a.Edges {
			if a.Edges[i] != c.Edges[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should give different graphs")
	}
}

func TestGridProperty(t *testing.T) {
	f := func(w8, h8, seed uint8) bool {
		w := int(w8%12) + 2
		h := int(h8%12) + 2
		g := Grid("g", w, h, int64(seed))
		return g.NumVertices() == w*h && csrWellFormed(g) && symmetric(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFromAdjacencyDedup(t *testing.T) {
	g := FromAdjacency("d", [][]int64{{1, 1, 2, 0}, {0}, {0}})
	if d := len(g.Neighbors(0)); d != 2 {
		t.Errorf("self-loops/dups not removed: deg=%d", d)
	}
}

func TestInputSuites(t *testing.T) {
	for _, in := range append(TrainingInputs(), TestInputs()...) {
		if !csrWellFormed(in.Graph) {
			t.Errorf("%s malformed", in.Graph.Name)
		}
	}
}
