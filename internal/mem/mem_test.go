package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocAlignmentAndAddressing(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("a", I64, 10)
	b := s.Alloc("b", I32, 3)
	c := s.Alloc("c", F64, 5)
	for _, arr := range []*Array{a, b, c} {
		if arr.Base%LineBytes != 0 {
			t.Errorf("%s base %d not line-aligned", arr.Name, arr.Base)
		}
	}
	if a.Addr(2) != a.Base+16 {
		t.Errorf("i64 addressing: got %d", a.Addr(2)-a.Base)
	}
	if b.Addr(2) != b.Base+8 {
		t.Errorf("i32 addressing: got %d", b.Addr(2)-b.Base)
	}
	// Arrays must not overlap.
	if b.Base < a.Addr(9)+8 {
		t.Error("arrays overlap")
	}
}

func TestInt32Truncation(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("x", I32, 2)
	a.StoreInt(0, -5)
	if got := a.LoadInt(0); got != -5 {
		t.Errorf("sign extension: got %d", got)
	}
	a.StoreInt(1, 1<<40|7)
	if got := a.LoadInt(1); got != 7 {
		t.Errorf("truncation: got %d", got)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("f", F64, 4)
	f := func(v float64, i uint8) bool {
		idx := int64(i) % 4
		a.StoreFloat(idx, v)
		return a.LoadFloat(idx) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntRoundTripProperty(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("i", I64, 8)
	f := func(v int64, i uint8) bool {
		idx := int64(i) % 8
		a.StoreInt(idx, v)
		return a.LoadInt(idx) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBounds(t *testing.T) {
	s := NewSpace()
	a := s.Alloc("a", I64, 3)
	if a.InBounds(-1) || a.InBounds(3) {
		t.Error("bounds check broken")
	}
	if !a.InBounds(0) || !a.InBounds(2) {
		t.Error("valid indices rejected")
	}
}

func TestInitializedAllocs(t *testing.T) {
	s := NewSpace()
	a := s.AllocInts("a", []int64{1, 2, 3})
	if a.Len() != 3 || a.Ints()[2] != 3 {
		t.Error("AllocInts broken")
	}
	f := s.AllocFloats("f", []float64{0.5})
	if f.Floats()[0] != 0.5 {
		t.Error("AllocFloats broken")
	}
	if len(s.Arrays()) != 2 {
		t.Error("Arrays() should list allocations")
	}
}
