// Package mem provides the simulated flat address space used by the Phloem
// toolchain. Programs running on the simulated Pipette machine allocate typed
// arrays here; every array occupies a contiguous, cache-line-aligned range of
// the simulated address space so that the cache model can operate on realistic
// byte addresses while the functional interpreter accesses elements by index.
package mem

import "fmt"

// Error is the typed panic value raised by memory-system misuse (kind
// mismatches, bad allocation sizes). The accessors on the hot load/store
// path keep their panic-based signatures, but the panic payload is
// structured so boundaries like sim.RunFunctional can recover it into a
// structured trap instead of crashing the process.
type Error struct {
	// Op names the failing operation ("LoadInt", "Alloc", "Kind.Size", ...).
	Op string
	// Array is the array name, when the failure concerns one.
	Array string
	// Detail describes the violation.
	Detail string
}

func (e *Error) Error() string {
	if e.Array != "" {
		return fmt.Sprintf("mem: %s on %q: %s", e.Op, e.Array, e.Detail)
	}
	return fmt.Sprintf("mem: %s: %s", e.Op, e.Detail)
}

// Kind identifies the element type of a simulated array.
type Kind int

const (
	// I32 is a 32-bit signed integer element (e.g., CSR index arrays).
	I32 Kind = iota
	// I64 is a 64-bit signed integer element.
	I64
	// F64 is a 64-bit IEEE float element (e.g., sparse matrix values).
	F64
)

// Size returns the element size in bytes.
func (k Kind) Size() int {
	switch k {
	case I32:
		return 4
	case I64, F64:
		return 8
	}
	panic(&Error{Op: "Kind.Size", Detail: fmt.Sprintf("unknown kind %d", int(k))})
}

func (k Kind) String() string {
	switch k {
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F64:
		return "f64"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// LineBytes is the cache line size used for address alignment. It matches the
// line size of the cache model in internal/cache.
const LineBytes = 64

// Array is a typed, contiguous array in the simulated address space.
type Array struct {
	// Name is a human-readable identifier (usually the source parameter name).
	Name string
	// Kind is the element type.
	Kind Kind
	// Base is the simulated byte address of element 0. Always line-aligned.
	Base uint64

	i32 []int32
	i64 []int64
	f64 []float64
}

// Len returns the number of elements in the array.
func (a *Array) Len() int {
	switch a.Kind {
	case I32:
		return len(a.i32)
	case I64:
		return len(a.i64)
	default:
		return len(a.f64)
	}
}

// Addr returns the simulated byte address of element i.
func (a *Array) Addr(i int64) uint64 {
	return a.Base + uint64(i)*uint64(a.Kind.Size())
}

// LoadInt reads element i as an int64 (sign-extending I32 elements). For F64
// arrays it returns the raw bit pattern; use LoadFloat for the numeric value.
func (a *Array) LoadInt(i int64) int64 {
	switch a.Kind {
	case I32:
		return int64(a.i32[i])
	case I64:
		return a.i64[i]
	default:
		panic(&Error{Op: "LoadInt", Array: a.Name, Detail: "array holds floats"})
	}
}

// StoreInt writes element i from an int64 (truncating for I32 elements).
func (a *Array) StoreInt(i int64, v int64) {
	switch a.Kind {
	case I32:
		a.i32[i] = int32(v)
	case I64:
		a.i64[i] = v
	default:
		panic(&Error{Op: "StoreInt", Array: a.Name, Detail: "array holds floats"})
	}
}

// LoadFloat reads element i of an F64 array.
func (a *Array) LoadFloat(i int64) float64 {
	if a.Kind != F64 {
		panic(&Error{Op: "LoadFloat", Array: a.Name, Detail: "array holds ints"})
	}
	return a.f64[i]
}

// StoreFloat writes element i of an F64 array.
func (a *Array) StoreFloat(i int64, v float64) {
	if a.Kind != F64 {
		panic(&Error{Op: "StoreFloat", Array: a.Name, Detail: "array holds ints"})
	}
	a.f64[i] = v
}

// Ints returns the underlying int64 slice of an I64 array (nil otherwise).
// It is intended for test setup and result extraction, not simulation.
func (a *Array) Ints() []int64 { return a.i64 }

// Int32s returns the underlying int32 slice of an I32 array (nil otherwise).
func (a *Array) Int32s() []int32 { return a.i32 }

// Floats returns the underlying float64 slice of an F64 array (nil otherwise).
func (a *Array) Floats() []float64 { return a.f64 }

// InBounds reports whether index i is a valid element index.
func (a *Array) InBounds(i int64) bool { return i >= 0 && i < int64(a.Len()) }

// Space is a simulated address space. Arrays are allocated at increasing,
// line-aligned addresses and never freed (simulated programs run once).
// The zero page (addresses below 64) is never allocated, so address 0 can be
// used as a sentinel.
type Space struct {
	next   uint64
	arrays []*Array
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{next: LineBytes}
}

// Alloc allocates a zero-initialized array of n elements.
func (s *Space) Alloc(name string, kind Kind, n int) *Array {
	if n < 0 {
		panic(&Error{Op: "Alloc", Array: name, Detail: fmt.Sprintf("negative length %d", n)})
	}
	a := &Array{Name: name, Kind: kind, Base: s.next}
	switch kind {
	case I32:
		a.i32 = make([]int32, n)
	case I64:
		a.i64 = make([]int64, n)
	case F64:
		a.f64 = make([]float64, n)
	}
	bytes := uint64(n) * uint64(kind.Size())
	// Round the next base up to the following cache line so arrays never
	// share lines (matches how the evaluated workloads lay out their data).
	s.next += (bytes + LineBytes - 1) / LineBytes * LineBytes
	if bytes == 0 {
		s.next += LineBytes
	}
	s.arrays = append(s.arrays, a)
	return a
}

// AllocInts allocates an I64 array initialized from vals.
func (s *Space) AllocInts(name string, vals []int64) *Array {
	a := s.Alloc(name, I64, len(vals))
	copy(a.i64, vals)
	return a
}

// AllocFloats allocates an F64 array initialized from vals.
func (s *Space) AllocFloats(name string, vals []float64) *Array {
	a := s.Alloc(name, F64, len(vals))
	copy(a.f64, vals)
	return a
}

// Arrays returns all allocated arrays in allocation order.
func (s *Space) Arrays() []*Array { return s.arrays }
