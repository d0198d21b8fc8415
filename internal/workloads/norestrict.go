package workloads

import (
	"fmt"
	"math"

	"phloem/internal/matrix"
	"phloem/internal/pipeline"
)

// This file holds kernel variants written WITHOUT restrict qualifiers to
// exercise the memory-effects analysis (internal/effects): each compiles
// because the analysis proves the accesses safe, not because the programmer
// asserted it. BFSAliasedSource is the negative case the analysis must
// reject.

// PRDApplySource is the apply phase of PageRank-Delta with every float
// array unqualified. All three arrays may alias under the points-to model
// (they share the float world location), but every access is at the same
// affine index u, so each pair's verdict is benign: an overlap can only hit
// the same element within one iteration, which program order handles. The
// race rule keeps such accesses in one stage.
const PRDApplySource = `
#pragma phloem
void prd_apply(float* rank, float* delta, float* next_delta, int n) {
  for (int u = 0; u < n; u = u + 1) {
    float nd = next_delta[u];
    rank[u] = rank[u] + nd;
    delta[u] = nd;
    next_delta[u] = 0.0;
  }
}
`

// prdApplyRef is the plain Go reference for one apply sweep.
func prdApplyRef(rank, delta, nextDelta []float64) {
	for u := range rank {
		nd := nextDelta[u]
		rank[u] += nd
		delta[u] = nd
		nextDelta[u] = 0
	}
}

// PRDApplyBindings seeds deterministic pseudo-random deltas.
func PRDApplyBindings(n int, seed int64) pipeline.Bindings {
	rank := make([]float64, n)
	delta := make([]float64, n)
	next := make([]float64, n)
	s := uint64(seed)*2862933555777941757 + 3037000493
	for i := 0; i < n; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		rank[i] = float64(s%1000) / 1000
		s = s*6364136223846793005 + 1442695040888963407
		next[i] = float64(s%1000)/500 - 1
	}
	return pipeline.Bindings{
		Floats:  map[string][]float64{"rank": rank, "delta": delta, "next_delta": next},
		Scalars: map[string]int64{"n": int64(n)},
	}
}

// PRDApplyVerify checks an executed instance against the Go reference run
// on a copy of the same bindings.
func PRDApplyVerify(inst *pipeline.Instance, b pipeline.Bindings) error {
	rank := append([]float64(nil), b.Floats["rank"]...)
	delta := append([]float64(nil), b.Floats["delta"]...)
	next := append([]float64(nil), b.Floats["next_delta"]...)
	prdApplyRef(rank, delta, next)
	for name, want := range map[string][]float64{"rank": rank, "delta": delta, "next_delta": next} {
		got := inst.Arrays[name].Floats()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return fmt.Errorf("prd_apply: %s[%d] = %g, want %g", name, i, got[i], want[i])
			}
		}
	}
	return nil
}

// SpMVNoRestrictSource is CSR sparse matrix-vector multiplication with the
// two index arrays unqualified: rows and cols may alias each other, but both
// are read-only in the kernel, so the verdict is no-conflict and decoupling
// stays legal. The float arrays keep restrict (they are written).
const SpMVNoRestrictSource = `
#pragma phloem
void spmv(int* rows, int* cols, float* restrict vals,
          float* restrict x, float* restrict y, int n) {
  for (int i = 0; i < n; i = i + 1) {
    float acc = 0.0;
    int kEnd = rows[i + 1];
    for (int k = rows[i]; k < kEnd; k = k + 1) {
      int c = cols[k];
      acc = acc + vals[k] * x[c];
    }
    y[i] = acc;
  }
}
`

// spmvRef computes the reference product y = A * x.
func spmvRef(a *matrix.CSR, x []float64) []float64 {
	y := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		for k := a.Rows[i]; k < a.Rows[i+1]; k++ {
			y[i] += a.Vals[k] * x[a.Cols[k]]
		}
	}
	return y
}

// SpMVBindings binds a CSR matrix and a deterministic dense vector.
func SpMVBindings(a *matrix.CSR) pipeline.Bindings {
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64((i*37+11)%100) / 100
	}
	return pipeline.Bindings{
		Ints:    map[string][]int64{"rows": a.Rows, "cols": a.Cols},
		Floats:  map[string][]float64{"vals": a.Vals, "x": x, "y": make([]float64, a.N)},
		Scalars: map[string]int64{"n": int64(a.N)},
	}
}

// SpMVVerify checks y against the Go reference.
func SpMVVerify(inst *pipeline.Instance, a *matrix.CSR, b pipeline.Bindings) error {
	want := spmvRef(a, b.Floats["x"])
	got := inst.Arrays["y"].Floats()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			return fmt.Errorf("spmv: y[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	return nil
}

// BFSAliasedSource drops restrict from distances and edges in the BFS
// kernel: the store distances[ngh] goes through a loaded index, so no
// verdict better than may-alias is provable against the edges reads and the
// effects analysis must reject the kernel with a positioned E0 error.
const BFSAliasedSource = `
#pragma phloem
void bfs(int* restrict nodes, int* edges, int* distances,
         int* restrict cur_fringe, int* restrict next_fringe,
         int root, int n) {
  int cur_size = 1;
  int next_size = 0;
  int cur_dist = 1;
  while (cur_size > 0) {
    for (int i = 0; i < cur_size; i = i + 1) {
      int v = cur_fringe[i];
      int edge_start = nodes[v];
      int edge_end = nodes[v + 1];
      for (int e = edge_start; e < edge_end; e = e + 1) {
        int ngh = edges[e];
        int old_dist = distances[ngh];
        if (cur_dist < old_dist) {
          distances[ngh] = cur_dist;
          next_fringe[next_size] = ngh;
          next_size = next_size + 1;
        }
      }
    }
    swap(cur_fringe, next_fringe);
    cur_size = next_size;
    next_size = 0;
    cur_dist = cur_dist + 1;
  }
}
`
