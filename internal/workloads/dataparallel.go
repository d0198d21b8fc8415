package workloads

import (
	"fmt"

	"phloem/internal/arch"
	"phloem/internal/pipeline"
)

// Data-parallel baselines (Sec. VI-B): each benchmark gets a competitive
// multithreaded implementation in the same C subset, with vertices
// range-partitioned across threads and barrier-synchronized sweeps. These
// mirror the structure of Ligra-style shared-memory implementations; as in
// the paper, the synchronization and partition bookkeeping adds dynamic
// instructions relative to the serial kernel.

// BFSDPSource is level-synchronized dense BFS: each level, every thread
// scans its vertex range for frontier vertices and relaxes their neighbors.
const BFSDPSource = `
void bfs_dp(int* restrict nodes, int* restrict edges, int* restrict distances,
            int* restrict changed, int root, int n, int tid, int nthreads) {
  int level = 0;
  int go = 1;
  int lo = tid * n / nthreads;
  int hi = (tid + 1) * n / nthreads;
  while (go > 0) {
    int local = 0;
    for (int v = lo; v < hi; v = v + 1) {
      int dv = distances[v];
      if (dv == level) {
        int edge_start = nodes[v];
        int edge_end = nodes[v + 1];
        int nd = level + 1;
        for (int e = edge_start; e < edge_end; e = e + 1) {
          int ngh = edges[e];
          int old = distances[ngh];
          if (nd < old) {
            distances[ngh] = nd;
            local = 1;
          }
        }
      }
    }
    changed[tid] = local;
    barrier();
    go = 0;
    for (int t = 0; t < nthreads; t = t + 1) {
      go = go | changed[t];
    }
    level = level + 1;
    barrier();
  }
}
`

// CCDPSource is label propagation with a partitioned sweep per iteration.
const CCDPSource = `
void cc_dp(int* restrict nodes, int* restrict edges, int* restrict labels,
           int* restrict changed, int n, int tid, int nthreads) {
  int go = 1;
  int lo = tid * n / nthreads;
  int hi = (tid + 1) * n / nthreads;
  while (go > 0) {
    int local = 0;
    for (int v = lo; v < hi; v = v + 1) {
      int edge_start = nodes[v];
      int edge_end = nodes[v + 1];
      int best = 1099511627776;
      for (int e = edge_start; e < edge_end; e = e + 1) {
        int ngh = edges[e];
        int ln = labels[ngh];
        if (ln < best) {
          best = ln;
        }
      }
      int lv = labels[v];
      if (best < lv) {
        labels[v] = best;
        local = 1;
      }
    }
    changed[tid] = local;
    barrier();
    go = 0;
    for (int t = 0; t < nthreads; t = t + 1) {
      go = go | changed[t];
    }
    barrier();
  }
}
`

// RadiiDPSource partitions the per-round mask sweep.
const RadiiDPSource = `
void radii_dp(int* restrict nodes, int* restrict edges, int* restrict visited,
              int* restrict next_visited, int* restrict radii,
              int* restrict changed, int n, int tid, int nthreads) {
  int round = 1;
  int go = 1;
  int lo = tid * n / nthreads;
  int hi = (tid + 1) * n / nthreads;
  while (go > 0) {
    int local = 0;
    for (int v = lo; v < hi; v = v + 1) {
      int edge_start = nodes[v];
      int edge_end = nodes[v + 1];
      int m = 0;
      for (int e = edge_start; e < edge_end; e = e + 1) {
        int ngh = edges[e];
        int mv = visited[ngh];
        m = m | mv;
      }
      int m0 = visited[v];
      int mnew = m | m0;
      next_visited[v] = mnew;
      if (mnew != m0) {
        radii[v] = round;
        local = 1;
      }
    }
    changed[tid] = local;
    barrier();
    go = 0;
    for (int t = 0; t < nthreads; t = t + 1) {
      go = go | changed[t];
    }
    round = round + 1;
    if (tid == 0) {
      swap(visited, next_visited);
    }
    barrier();
  }
}
`

// PRDDPSource partitions both phases. Cross-partition delta pushes go to a
// per-thread private accumulation array (next_delta is sized nthreads*n) to
// avoid write races; the apply phase reduces the private copies.
const PRDDPSource = `
void prd_dp(int* restrict nodes, int* restrict edges, float* restrict delta,
            float* restrict next_delta, float* restrict rank,
            int n, int niter, float threshold, float alpha, int tid, int nthreads) {
  int lo = tid * n / nthreads;
  int hi = (tid + 1) * n / nthreads;
  for (int it = 0; it < niter; it = it + 1) {
    int base = tid * n;
    for (int v = lo; v < hi; v = v + 1) {
      float d = delta[v];
      if (fabs(d) > threshold) {
        int edge_start = nodes[v];
        int edge_end = nodes[v + 1];
        int deg = edge_end - edge_start;
        if (deg > 0) {
          float w = alpha * d / (float)deg;
          for (int e = edge_start; e < edge_end; e = e + 1) {
            int ngh = edges[e];
            next_delta[base + ngh] = next_delta[base + ngh] + w;
          }
        }
      }
    }
    barrier();
    for (int u = lo; u < hi; u = u + 1) {
      float nd = 0.0;
      for (int t = 0; t < nthreads; t = t + 1) {
        int idx = t * n + u;
        nd = nd + next_delta[idx];
        next_delta[idx] = 0.0;
      }
      rank[u] = rank[u] + nd;
      delta[u] = nd;
    }
    barrier();
  }
}
`

// SpMMDPSource partitions output rows across threads (no races, no barriers).
const SpMMDPSource = `
void spmm_dp(int* restrict arows, int* restrict acols, float* restrict avals,
             int* restrict btrows, int* restrict btcols, float* restrict btvals,
             float* restrict out, int n, int tid, int nthreads) {
  int lo = tid * n / nthreads;
  int hi = (tid + 1) * n / nthreads;
  for (int i = lo; i < hi; i = i + 1) {
    int ka0 = arows[i];
    int kaEnd = arows[i + 1];
    for (int j = 0; j < n; j = j + 1) {
      int kb = btrows[j];
      int kbEnd = btrows[j + 1];
      int ka = ka0;
      float acc = 0.0;
      while (ka < kaEnd && kb < kbEnd) {
        int ca = acols[ka];
        int cb = btcols[kb];
        if (ca == cb) {
          float pa = avals[ka];
          float pb = btvals[kb];
          acc = acc + pa * pb;
          ka = ka + 1;
          kb = kb + 1;
        } else {
          if (ca < cb) {
            ka = ka + 1;
          } else {
            kb = kb + 1;
          }
        }
      }
      if (acc != 0.0) {
        out[i * n + j] = acc;
      }
    }
  }
}
`

// BuildDataParallel compiles a (tid, nthreads)-parameterized kernel and
// instantiates it as T worker stages on the given machine shape.
func BuildDataParallel(src string, threads, threadsPerCore int) (*pipeline.Pipeline, error) {
	p, err := CompileSerial(src)
	if err != nil {
		return nil, err
	}
	pipe := &pipeline.Pipeline{Prog: p, Description: fmt.Sprintf("data-parallel, %d threads", threads)}
	for t := 0; t < threads; t++ {
		pipe.Stages = append(pipe.Stages, &pipeline.Stage{
			Name: fmt.Sprintf("%s.worker%d", p.Name, t),
			Body: p.Body,
			Thread: arch.ThreadID{
				Core:   t / threadsPerCore,
				Thread: t % threadsPerCore,
			},
			Overrides: map[string]int64{"tid": int64(t)},
		})
	}
	return pipe, nil
}

// dpScalars merges the thread-count scalars into a binding set.
func dpScalars(b pipeline.Bindings, threads int) pipeline.Bindings {
	out := b
	out.Scalars = map[string]int64{}
	for k, v := range b.Scalars {
		out.Scalars[k] = v
	}
	out.Scalars["tid"] = 0 // per-stage overrides replace this
	out.Scalars["nthreads"] = int64(threads)
	return out
}
