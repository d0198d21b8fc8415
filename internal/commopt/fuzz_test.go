package commopt_test

// FuzzCommOpt feeds arbitrary byte strings through the full compile flow
// and, whenever a pipeline builds, through the queue-communication
// optimization pass. The invariants under fuzzing: Apply never panics; every
// capacity it leaves behind is in [1, QueueDepth]; the plan passes its own
// deadlock-safety check (Plan.Check — the same premises verify's Q4 rule
// enforces); a user-set depth is never overridden; and the rendered plan is
// byte-deterministic. Seeds are small kernels that exercise single-queue,
// gather, multi-phase, and multicast-shaped pipelines.
//
// Runs as a plain unit test over the seed corpus in `go test`; explore with
//
//	go test ./internal/commopt -fuzz FuzzCommOpt -fuzztime 30s

import (
	"testing"

	"phloem/internal/arch"
	"phloem/internal/commopt"
	"phloem/internal/core"
)

func FuzzCommOpt(f *testing.F) {
	seeds := []string{
		"",
		"void k() {}",
		"void k(int* restrict a, int n) { for (int i = 0; i < n; i = i + 1) { a[i] = i; } }",
		`#pragma phloem
void k(int* restrict a, int* restrict b, int n) {
  for (int i = 0; i < n; i = i + 1) {
    int j = a[i];
    if (j > 0) { b[j] = b[j] + 1; }
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
		`#pragma phloem
void fan(int* restrict a, int* restrict b, int* restrict c, int n) {
  for (int i = 0; i < n; i = i + 1) {
    int v = a[i];
    b[i] = v * 2;
    c[i] = v * 2;
  }
}`,
		`#pragma phloem
void phases(int* restrict a, int* restrict b, int n) {
  for (int i = 0; i < n; i = i + 1) { a[i] = a[i] + 1; }
  for (int i = 0; i < n; i = i + 1) { b[a[i]] = i; }
}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cfg := arch.DefaultConfig(1)
	f.Fuzz(func(t *testing.T, src string) {
		res, err := core.CompileSource(src, core.Options{Mode: core.Static})
		if err != nil {
			// Rejections are the frontend's concern (FuzzParse); the pass
			// only sees pipelines that compiled.
			return
		}
		pl := res.Pipeline
		userDepths := make([]int, len(pl.Queues))
		for q, spec := range pl.Queues {
			userDepths[q] = spec.Depth
		}
		plan, err := commopt.Apply(pl, cfg)
		if err != nil {
			t.Fatalf("apply failed on compiled pipeline: %v\nsource:\n%s", err, src)
		}
		if err := plan.Check(cfg); err != nil {
			t.Fatalf("plan fails its own safety check: %v\nsource:\n%s", err, src)
		}
		for q, spec := range pl.Queues {
			d := spec.Depth
			if d == 0 {
				d = cfg.QueueDepth
			}
			if d < 1 || d > cfg.QueueDepth {
				t.Fatalf("q%d capacity %d outside [1, %d]\nsource:\n%s", q, spec.Depth, cfg.QueueDepth, src)
			}
			if userDepths[q] > 0 && spec.Depth != userDepths[q] {
				t.Fatalf("q%d user-set depth %d overridden to %d\nsource:\n%s",
					q, userDepths[q], spec.Depth, src)
			}
			if spec.DepthByPass && userDepths[q] > 0 {
				t.Fatalf("q%d user-set depth relabeled as pass-assigned\nsource:\n%s", q, src)
			}
		}
		first := plan.String()
		res2, err := core.CompileSource(src, core.Options{Mode: core.Static})
		if err != nil {
			t.Fatalf("source compiled once but not twice: %v", err)
		}
		plan2, err := commopt.Apply(res2.Pipeline, cfg)
		if err != nil {
			t.Fatalf("apply succeeded once but not twice: %v", err)
		}
		if plan2.String() != first {
			t.Fatalf("plan nondeterministic across identical compiles\n--- first ---\n%s--- second ---\n%s",
				first, plan2.String())
		}
	})
}
