// Package workloads contains the evaluated benchmarks (Sec. VI-B): for each
// of BFS, Connected Components, PageRank-Delta, Radii, and SpMM it provides
// the serial C-subset source that Phloem compiles, a competitive
// data-parallel variant, a hand-optimized ("manually pipelined") variant
// encoding the insights of the Pipette paper, and a plain Go reference
// implementation used to verify functional correctness of every variant.
package workloads

import (
	"fmt"

	"phloem/internal/ir"
	"phloem/internal/lower"
	"phloem/internal/source"
)

// INF is the "infinite distance" constant used by the graph kernels
// (INT_MAX in the paper's listings; a large sentinel here).
const INF = int64(1) << 40

// CompileSerial parses, checks, and lowers a kernel source to IR.
func CompileSerial(src string) (*ir.Prog, error) {
	fn, err := source.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := source.Check(fn); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	p, err := lower.FromAST(fn)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	return p, nil
}
