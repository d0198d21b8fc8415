package sim

import (
	"math/rand"
	"testing"
)

// TestSlotSetView checks view against a plain walk of the ring for window
// sizes below, at and above one word, at every head position.
func TestSlotSetView(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{1, 2, 16, 64, 128, 256} {
		s := slotSet{make([]uint64, slotSetWords(size)), size}
		in := make([]bool, size)
		for round := 0; round < 200; round++ {
			slot := rng.Intn(size)
			if in[slot] = rng.Intn(2) == 0; in[slot] {
				s.set(slot)
			} else {
				s.clear(slot)
			}
			if s.has(slot) != in[slot] {
				t.Fatalf("size %d: has(%d) = %v", size, slot, !in[slot])
			}
			head := rng.Intn(size)
			n := min(size, 128)
			v := s.view(head).below(n)
			for off := 0; off < n; off++ {
				if got := v.from(off).first() == off; got != in[(head+off)%size] {
					t.Fatalf("size %d head %d: offset %d shows %v, slot %d holds %v", size, head, off, got, (head+off)%size, !got)
				}
			}
		}
	}
}

func TestBits128(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 500; round++ {
		b := bits128{rng.Uint64() & rng.Uint64(), rng.Uint64() & rng.Uint64()}
		var members []int
		for i := 0; i < 128; i++ {
			if b.from(i).below(i+1) != (bits128{}) {
				members = append(members, i)
			}
		}
		if b.count() != len(members) || b.empty() != (len(members) == 0) {
			t.Fatalf("%x: count %d, empty %v, members %v", b, b.count(), b.empty(), members)
		}
		rest := b
		for k, m := range members {
			if got := b.nth(k + 1); got != m {
				t.Fatalf("%x: nth(%d) = %d, want %d", b, k+1, got, m)
			}
			if got := rest.first(); got != m {
				t.Fatalf("%x: first after %d drops = %d, want %d", b, k, got, m)
			}
			rest = rest.dropFirst()
		}
		if !rest.empty() || rest.first() != 128 {
			t.Fatalf("%x: %x left after dropping every member", b, rest)
		}
		cut := rng.Intn(129)
		if lo, hi := b.below(cut), b.from(cut); lo.or(hi) != b || lo.andNot(hi) != lo || lo.count()+hi.count() != b.count() {
			t.Fatalf("%x: below(%d) and from(%d) do not split the set", b, cut, cut)
		}
		i := rng.Intn(128)
		if w := b.with(i); w.from(i).first() != i || w.andNot(b).count() > 1 {
			t.Fatalf("%x: with(%d) = %x", b, i, w)
		}
	}
}
