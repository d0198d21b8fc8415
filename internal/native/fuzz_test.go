package native_test

// FuzzNativeDiff feeds arbitrary source strings through the full compile
// flow and, whenever a pipeline builds, runs it on both the functional
// simulator and the native backend from synthesized bindings — the two
// configurations of one engine, so this fuzzes task placement, turn policy
// and tracing rather than opcode semantics or queue bounds, which the two
// share. The oracle has no exemption: both runs must reach the same
// verdict class (match, trap, deadlock or trace limit) at every depth.
// When both succeed, the output memory must match bitwise and the executed
// instruction counts must be equal; on a deadlock, the wait-for snapshots
// must be equal apart from their phase. Trap messages are
// compared only when a single stage exists; with concurrent stages the
// first trap to fire is scheduling-dependent.
// A nonzero depth shrinks the machine's default queue capacity (to
// 1 + depth%24) so that rings fill mid-burst and RAs resume often; a
// capacity below the one the compiler sized for may deadlock a pipeline,
// and then must deadlock it the same way in both configurations. The seeds
// with a wanted verdict must reach it in both.
//
// Runs as a plain unit test over the seed corpus in `go test`; explore with
//
//	go test ./internal/native -fuzz FuzzNativeDiff -fuzztime 30s

import (
	"errors"
	"testing"

	"phloem/internal/arch"
	"phloem/internal/core"
	"phloem/internal/ir"
	"phloem/internal/native"
	"phloem/internal/pipeline"
	"phloem/internal/sim"
	"phloem/internal/workloads"
)

// synthBindings builds deterministic in-bounds-biased bindings for any
// compiled pipeline: every array gets 32 elements, int contents stay in
// [0, 32) so indirect accesses usually land in bounds (out-of-bounds ones
// are fine too — both backends must then trap), and every scalar is 8 so
// loop bounds stay small.
func synthBindings(pl *pipeline.Pipeline) pipeline.Bindings {
	b := pipeline.Bindings{
		Ints:         map[string][]int64{},
		Floats:       map[string][]float64{},
		Scalars:      map[string]int64{},
		FloatScalars: map[string]float64{},
	}
	for _, slot := range pl.Prog.Slots {
		if slot.Kind == ir.KFloat {
			fs := make([]float64, 32)
			for i := range fs {
				fs[i] = float64(i)*0.5 - 3
			}
			b.Floats[slot.Name] = fs
		} else {
			is := make([]int64, 32)
			for i := range is {
				is[i] = int64((i*3 + 1) % 32)
			}
			b.Ints[slot.Name] = is
		}
	}
	for _, v := range pl.Prog.ScalarParams {
		info := pl.Prog.Vars[v]
		if info.Kind == ir.KFloat {
			b.FloatScalars[info.Name] = 1.5
		} else {
			b.Scalars[info.Name] = 8
		}
	}
	return b
}

// verdictOf names err's sentinel class: "match" for no error, "trap",
// "deadlock" or "limit", and "" for any other error.
func verdictOf(err error) string {
	switch {
	case err == nil:
		return "match"
	case errors.Is(err, sim.ErrTrap):
		return "trap"
	case errors.Is(err, sim.ErrDeadlock):
		return "deadlock"
	case errors.Is(err, sim.ErrTraceLimit):
		return "limit"
	}
	return ""
}

// relaySource is BFS's shape at the synthesized bindings' scale: every
// index stays in bounds, so its runs get past the first level and swap.
const relaySource = `#pragma phloem
void relay(int* restrict nodes, int* restrict edges, int* restrict dist,
           int* restrict cur, int* restrict next, int n) {
  int size = n;
  int level = 1;
  while (level < 4) {
    int nsize = 0;
    for (int i = 0; i < size; i = i + 1) {
      int v = cur[i] / 2;
      int s = nodes[v] / 4;
      int t = nodes[v + 1] / 4 + 8;
      for (int e = s; e < t; e = e + 1) {
        int u = edges[e];
        int d = dist[u];
        if (level < d) {
          dist[u] = level;
          next[nsize] = u;
          nsize = nsize + 1;
        }
      }
    }
    swap(cur, next);
    size = nsize;
    level = level + 1;
  }
}`

// fringeSource is corpus entry acc11c1aec68329a, laid out: a BFS skeleton
// whose fringe never empties, so its next_fringe store runs past the 32
// synthesized elements and traps. It pins the swap's reader scope: two of
// its RAs never read the swapped fringes and have full output rings that
// only the swapping stage drains, so a swap that waited for them would
// deadlock before the trap.
const fringeSource = `void A00(int* nodes, int* restrict edges, int restrict0000000000,
         int* restrict cur_fringe, int*restrict next_fringe) {
  int cur_size =01;
  int next_size =00;
  int A00000000=00;
  while (cur_size ) {
    for (int i =00; i < cur_size; i = i +01) {
      int v = cur_fringe[0];
      int edge_start = nodes[0];
      int edge_end = nodes[00+01];
      for (int e = edge_start; e < edge_end; e = e +01) {
        int ngh = edges[e];
        {
          next_fringe[next_size] = ngh;
          next_size = next_size +01;
        }
      }
    }
    swap(cur_fringe, next_fringe);
  }
}`

func FuzzNativeDiff(f *testing.F) {
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
		`#pragma phloem
void div(int* restrict a, int* restrict b, int n) {
  for (int i = 0; i < n; i = i + 1) { b[i] = n / a[i]; }
}`,
	}
	for _, s := range seeds {
		f.Add(s, uint8(0))
	}
	// RAs (SCAN, INDIRECT, chained) behind a double-buffered fringe whose
	// swap must wait for them, at the default capacity and at tiny ones.
	// relay runs to completion and must match; BFS on the synthesized
	// bindings traps on an out-of-bounds index in an INDIRECT RA mid-run,
	// and fringeSource on its fringe store.
	type seed struct {
		src   string
		depth uint8
	}
	want := map[seed]string{}
	for _, s := range []struct{ src, verdict string }{{relaySource, "match"}, {workloads.BFSSource, "trap"}, {fringeSource, "trap"}} {
		for _, depth := range []uint8{0, 1, 2, 3} {
			f.Add(s.src, depth)
			want[seed{s.src, depth}] = s.verdict
		}
	}
	f.Fuzz(func(t *testing.T, src string, depth uint8) {
		cfg := arch.DefaultConfig(1)
		if depth > 0 {
			cfg.QueueDepth = 1 + int(depth)%cfg.QueueDepth
		}
		res, err := core.CompileSource(src, core.DefaultOptions())
		if err != nil {
			// Rejections are the frontend's concern (FuzzParse).
			return
		}
		pl := res.Pipeline
		bind := synthBindings(pl)

		simInst, err := pipeline.Instantiate(pl, cfg, bind)
		if err != nil {
			t.Fatalf("instantiate(sim): %v\nsource:\n%s", err, src)
		}
		simInst.Machine.MaxTraceEntries = 1 << 20
		ts, simErr := simInst.Machine.RunFunctional()

		natInst, err := pipeline.Instantiate(pl, cfg, bind)
		if err != nil {
			t.Fatalf("instantiate(native): %v\nsource:\n%s", err, src)
		}
		natInst.Machine.MaxTraceEntries = 1 << 20
		st, natErr := native.Run(natInst.Machine, native.Options{})

		verdict := verdictOf(simErr)
		if verdict == "" {
			t.Fatalf("unexpected functional error class: %v\nsource:\n%s", simErr, src)
		}
		if nv := verdictOf(natErr); nv != verdict {
			t.Fatalf("verdicts differ at depth %d: functional %s, native %s\nfunctional: %v\nnative: %v\nsource:\n%s",
				depth, verdict, nv, simErr, natErr, src)
		}
		switch verdict {
		case "match":
			if st.Instructions != ts.Instructions {
				t.Fatalf("instruction counts diverge: native %d, functional %d\nsource:\n%s",
					st.Instructions, ts.Instructions, src)
			}
			compareSpaces(t, "fuzz", simInst.Machine.Space, natInst.Machine.Space)
			if t.Failed() {
				t.Fatalf("memory diverged\nsource:\n%s", src)
			}
		case "trap":
			if len(pl.Stages) == 1 && len(pl.RAs) == 0 && simErr.Error() != natErr.Error() {
				t.Fatalf("single-stage trap messages differ:\n  functional: %v\n  native:     %v\nsource:\n%s",
					simErr, natErr, src)
			}
		case "deadlock":
			if !sameSnapshot(simErr, natErr) {
				t.Fatalf("deadlock snapshots differ at depth %d:\n  functional: %v\n  native:     %v\nsource:\n%s",
					depth, simErr, natErr, src)
			}
		}
		if w, ok := want[seed{src, depth}]; ok && verdict != w {
			t.Fatalf("seed at depth %d reached %q, want %q\nfunctional: %v\nnative: %v\nsource:\n%s",
				depth, verdict, w, simErr, natErr, src)
		}
	})
}
