package workloads

import (
	"fmt"
	"math"

	"phloem/internal/matrix"
	"phloem/internal/pipeline"
)

// SpMMSource is inner-product (output-stationary) sparse matrix-matrix
// multiplication: each output element is the dot product of a row of A and a
// column of B (stored as a row of B^T), computed by a merge-intersection of
// the two sorted coordinate lists. The data-dependent merge loop is the
// pattern the paper's Sec. VII calls out: its bespoke manual optimization
// (skipping the rest of a run after a control value) is application insight
// unavailable to Phloem, making SpMM the evaluation's negative result.
const SpMMSource = `
#pragma phloem
void spmm(int* restrict arows, int* restrict acols, float* restrict avals,
          int* restrict btrows, int* restrict btcols, float* restrict btvals,
          float* restrict out, int n) {
  for (int i = 0; i < n; i = i + 1) {
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

// spmmRef computes the dense reference product C = A * B.
func spmmRef(a, bt *matrix.CSR) []float64 {
	n := a.N
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ka, kaEnd := a.Rows[i], a.Rows[i+1]
			kb, kbEnd := bt.Rows[j], bt.Rows[j+1]
			acc := 0.0
			for ka < kaEnd && kb < kbEnd {
				ca, cb := a.Cols[ka], bt.Cols[kb]
				switch {
				case ca == cb:
					acc += a.Vals[ka] * bt.Vals[kb]
					ka++
					kb++
				case ca < cb:
					ka++
				default:
					kb++
				}
			}
			if acc != 0 {
				out[i*n+j] = acc
			}
		}
	}
	return out
}

// SpMMBindings builds bindings for A * B with B^T given in CSR form.
func SpMMBindings(a, bt *matrix.CSR) pipeline.Bindings {
	n := a.N
	return pipeline.Bindings{
		Ints: map[string][]int64{
			"arows":  a.Rows,
			"acols":  a.Cols,
			"btrows": bt.Rows,
			"btcols": bt.Cols,
		},
		Floats: map[string][]float64{
			"avals":  a.Vals,
			"btvals": bt.Vals,
			"out":    make([]float64, n*n),
		},
		Scalars: map[string]int64{"n": int64(n)},
	}
}

// SpMMVerify checks the product against the reference.
func SpMMVerify(inst *pipeline.Instance, a, bt *matrix.CSR) error {
	want := spmmRef(a, bt)
	got := inst.Arrays["out"].Floats()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			return fmt.Errorf("spmm: out[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	return nil
}
