package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"phloem/internal/mem"
)

// errClass names the sentinel class of an engine error ("" for nil).
func errClass(err error) string {
	if err == nil {
		return ""
	}
	for _, class := range []error{ErrTrap, ErrDeadlock, ErrTraceLimit, ErrCancelled} {
		if errors.Is(err, class) {
			return class.Error()
		}
	}
	return "unclassified: " + err.Error()
}

// bothEngines runs the machine build makes on both configurations of the
// execution engine — RunFunctional and RunNative, each on its own copy —
// and requires one verdict: on success the same instruction count,
// leftovers and memory; on failure the same error class, for a trap the
// same message (the machines here have one trap site, so no schedule can
// change which trap fires), and for a deadlock the same wait-for snapshot
// apart from its phase (both bound every ring at its capacity, and a
// deadlocked single-producer network has one blocked state). It returns
// the functional copy and its result for the test's own expectations:
// those hand-computed values, not the other configuration, are the oracle
// for what an opcode means.
func bothEngines(t *testing.T, build func() *Machine) (*Machine, *TraceSet, error) {
	t.Helper()
	fm := build()
	ts, ferr := fm.RunFunctional()
	nm := build()
	instrs, leftover, nerr := nm.RunNative()
	if fc, nc := errClass(ferr), errClass(nerr); fc != nc {
		t.Fatalf("verdicts differ:\n  functional: %v\n  native:     %v", ferr, nerr)
	}
	switch {
	case errors.Is(ferr, ErrTrap):
		if ferr.Error() != nerr.Error() {
			t.Errorf("trap messages differ:\n  functional: %v\n  native:     %v", ferr, nerr)
		}
	case errors.Is(ferr, ErrDeadlock):
		if !sameSnapshot(ferr, nerr) {
			t.Errorf("deadlock snapshots differ:\n  functional: %v\n  native:     %v", ferr, nerr)
		}
	case ferr == nil:
		if instrs != ts.Instructions {
			t.Errorf("native executed %d instructions, functional %d", instrs, ts.Instructions)
		}
		for q := range leftover {
			if leftover[q] != ts.Leftover[q] {
				t.Errorf("q%d leftover %d native vs %d functional", q, leftover[q], ts.Leftover[q])
			}
		}
		fa, na := fm.Space.Arrays(), nm.Space.Arrays()
		for i, x := range fa {
			y := na[i]
			for j := int64(0); j < int64(x.Len()); j++ {
				var a, b uint64
				if x.Kind == mem.F64 {
					a, b = math.Float64bits(x.LoadFloat(j)), math.Float64bits(y.LoadFloat(j))
				} else {
					a, b = uint64(x.LoadInt(j)), uint64(y.LoadInt(j))
				}
				if a != b {
					t.Errorf("%s[%d] = %#x functional vs %#x native", x.Name, j, a, b)
				}
			}
		}
	}
	return fm, ts, ferr
}

// sameSnapshot reports whether two deadlock errors carry the same wait-for
// snapshot apart from the phase that took it.
func sameSnapshot(a, b error) bool {
	var da, db *DeadlockError
	if !errors.As(a, &da) || !errors.As(b, &db) {
		return false
	}
	sa := *da.Snapshot
	sa.Phase = db.Snapshot.Phase
	return reflect.DeepEqual(&sa, db.Snapshot)
}

// runBoth is bothEngines for a machine that must succeed, followed by the
// timing replay of the functional traces.
func runBoth(t *testing.T, build func() *Machine) (*Machine, *Stats) {
	t.Helper()
	m, ts, err := bothEngines(t, build)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.RunTiming(ts)
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}
