package source

// FuzzParse feeds arbitrary byte strings through Parse and Check. The
// invariants under fuzzing: no panics anywhere in the frontend, and every
// rejection is a *source.Error with a positive line number — the compiler
// driver, the verifier, and the effects analysis all render these positions
// to users. Seeds are the benchmark kernels plus small pathological inputs.
//
// Runs as a plain unit test over the seed corpus in `go test`; explore with
//
//	go test ./internal/source -fuzz FuzzParse -fuzztime 30s

import (
	"errors"
	"testing"
)

// fuzzSeeds is FuzzParse's seed corpus.
var fuzzSeeds = []string{
	"",
	"void",
	"#pragma phloem",
	"void k() {}",
	"void k(int n) { int x = n; }",
	"void k(int* restrict a, int n) { a[0] = n; }",
	"void k(int* a, int n) { for (int i = 0; i < n; i = i + 1) { a[i] = i; } }",
	`#pragma phloem
void k(int* restrict a, float* restrict f, int n, float s) {
  for (int i = 0; i < n; i = i + 1) {
    f[i] = f[i] * s;
    a[i] = a[i] + 1;
  }
}`,
	`#pragma phloem
void bfs(int* restrict nodes, int* restrict edges, int* restrict distances,
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
}`,
	`#pragma phloem
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
}`,
	"void k(int n) { while (1) { } }",
	"void k(int* restrict a) { swap(a, a); }",
	"void k(int n) { if (n) { } else { } }",
	"void k(float f) { float g = -f; }",
	"/* comment */ void k(int n) {}",
	"void k(int n) { int x = (n << 2) % 3; }",
	"\x00\x01\x02",
	"void k(int n) { int x = ((((((((n))))))))); }",
}

func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := Parse(src)
		if err != nil {
			requirePositioned(t, err)
			return
		}
		if err := Check(fn); err != nil {
			requirePositioned(t, err)
		}
	})
}

func requirePositioned(t *testing.T, err error) {
	t.Helper()
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("frontend rejection is not a *source.Error: %T: %v", err, err)
	}
	if se.Line <= 0 {
		t.Fatalf("rejection has no source position (line %d): %v", se.Line, err)
	}
}
