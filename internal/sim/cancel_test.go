package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"phloem/internal/arch"
	"phloem/internal/mem"
)

// introMachine builds the intro serial kernel over n elements.
func introMachine(t *testing.T, n int) (*Machine, *mem.Array) {
	t.Helper()
	a, bv := introData(t, n)
	m := NewMachine(arch.DefaultConfig(1))
	arrA := m.Space.AllocInts("A", a)
	arrB := m.Space.AllocInts("B", bv)
	arrOut := m.Space.Alloc("out", mem.I64, 1)
	sa := m.AddSlot("A", arrA)
	sb := m.AddSlot("B", arrB)
	so := m.AddSlot("out", arrOut)
	m.AddStage(&Stage{
		Prog:   buildIntroSerial(int64(len(a)), sa, sb, so),
		Thread: arch.ThreadID{Core: 0, Thread: 0},
	})
	return m, arrOut
}

// TestBackgroundCtxBitIdenticalStats pins the no-op guarantee: a context
// with a far-future deadline that never fires must leave both results and
// Stats bit-identical to a run without one.
func TestBackgroundCtxBitIdenticalStats(t *testing.T) {
	m1, out1 := introMachine(t, 1500)
	base, err := m1.Run()
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	m2, out2 := introMachine(t, 1500)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	m2.Ctx = ctx
	got, err := m2.Run()
	if err != nil {
		t.Fatalf("ctx run: %v", err)
	}
	if out1.Ints()[0] != out2.Ints()[0] {
		t.Errorf("results differ: %d vs %d", out1.Ints()[0], out2.Ints()[0])
	}
	if !reflect.DeepEqual(base, got) {
		t.Errorf("Stats differ with background ctx:\nbase: %+v\nctx:  %+v", base, got)
	}
	if base.String() != got.String() {
		t.Errorf("rendered Stats differ:\n%s\nvs\n%s", base, got)
	}
}

func TestCancelledFunctionalPhase(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := bothEngines(t, func() *Machine {
		m, _ := introMachine(t, 1500)
		m.Ctx = ctx
		return m
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("expected ErrCancelled, got: %v", err)
	}
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not *CancelledError: %T", err)
	}
	if ce.Phase != "functional" {
		t.Errorf("phase = %q, want functional", ce.Phase)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause not surfaced via Unwrap: %v", err)
	}
}

func TestCancelledTimingPhasePartialStats(t *testing.T) {
	m, _ := introMachine(t, 1500)
	ts, err := m.RunFunctional()
	if err != nil {
		t.Fatalf("functional: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.Ctx = ctx
	_, err = m.RunTiming(ts)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("expected ErrCancelled, got: %v", err)
	}
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not *CancelledError: %T", err)
	}
	if ce.Phase != "timing" {
		t.Errorf("phase = %q, want timing", ce.Phase)
	}
	if ce.Stats == nil {
		t.Error("no partial stats attached to timing-phase cancellation")
	}
}

// TestCancelledDeadlineExpired: a wall-clock deadline is a context
// deadline; one already past at entry stops both configurations before
// their first round, with the deadline as the cause.
func TestCancelledDeadlineExpired(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := bothEngines(t, func() *Machine {
		m, _ := introMachine(t, 1500)
		m.Ctx = ctx
		return m
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("expected ErrCancelled, got: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline not surfaced via Unwrap: %v", err)
	}
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not *CancelledError: %T", err)
	}
	if ce.Phase != "functional" {
		t.Errorf("phase = %q, want functional (deadline already past at entry)", ce.Phase)
	}
}
