package sim

import "math/bits"

// Bitsets for the timing engine's issue scan (timing.go): which window slots
// hold entries of some kind, and the cut of such a set to the offsets one
// scan covers.

// slotSet is a bitset over the slots of a window of size slots. Each slot is
// recorded twice, at bit slot and at bit slot+size, so that any run of window
// offsets (a run of slots that may wrap around the ring) is one contiguous
// run of bits; the words past those are padding that view may read.
type slotSet struct {
	bits []uint64
	size int
}

// slotSetWords is the length of a slotSet's bits for a window of size slots.
func slotSetWords(size int) int { return (2*size-1)>>6 + 3 }

func (s slotSet) set(slot int) {
	s.bits[slot>>6] |= 1 << uint(slot&63)
	slot += s.size
	s.bits[slot>>6] |= 1 << uint(slot&63)
}

func (s slotSet) clear(slot int) {
	s.bits[slot>>6] &^= 1 << uint(slot&63)
	slot += s.size
	s.bits[slot>>6] &^= 1 << uint(slot&63)
}

func (s slotSet) has(slot int) bool { return s.bits[slot>>6]>>uint(slot&63)&1 != 0 }

// view returns the 128 bits starting at bit pos, as bits 0..127.
func (s slotSet) view(pos int) bits128 {
	w, b := s.bits[pos>>6:pos>>6+3], uint(pos&63)
	return bits128{lo: w[0]>>b | w[1]<<(64-b), hi: w[1]>>b | w[2]<<(64-b)}
}

// bits128 is a 128-bit set of small integers, enough for the window offsets
// one issue scan reaches.
type bits128 struct{ lo, hi uint64 }

func (b bits128) empty() bool              { return b.lo|b.hi == 0 }
func (b bits128) count() int               { return bits.OnesCount64(b.lo) + bits.OnesCount64(b.hi) }
func (b bits128) or(o bits128) bits128     { return bits128{b.lo | o.lo, b.hi | o.hi} }
func (b bits128) with(i int) bits128       { return b.or(bits128{1 << uint(i), 1 << uint(i-64)}) }
func (b bits128) andNot(o bits128) bits128 { return bits128{b.lo &^ o.lo, b.hi &^ o.hi} }
func (b bits128) from(n int) bits128       { return b.andNot(bits128{^uint64(0), ^uint64(0)}.below(n)) }

// dropFirst removes the smallest member.
func (b bits128) dropFirst() bits128 {
	if b.lo != 0 {
		return bits128{b.lo & (b.lo - 1), b.hi}
	}
	return bits128{0, b.hi & (b.hi - 1)}
}

// below keeps the members under n.
func (b bits128) below(n int) bits128 {
	switch {
	case n >= 128:
		return b
	case n >= 64:
		return bits128{b.lo, b.hi & (1<<uint(n-64) - 1)}
	}
	return bits128{b.lo & (1<<uint(n) - 1), 0}
}

// first returns the smallest member, or 128 for the empty set.
func (b bits128) first() int {
	if b.lo != 0 {
		return bits.TrailingZeros64(b.lo)
	}
	return 64 + bits.TrailingZeros64(b.hi)
}

// nth returns the k-th smallest member (k >= 1; the set has at least k),
// halving the word that holds it until two bits are left.
func (b bits128) nth(k int) int {
	w, base := b.lo, 0
	if c := bits.OnesCount64(w); c < k {
		w, base, k = b.hi, 64, k-c
	}
	if c := bits.OnesCount32(uint32(w)); c < k {
		w, base, k = w>>32, base+32, k-c
	}
	if c := bits.OnesCount16(uint16(w)); c < k {
		w, base, k = w>>16, base+16, k-c
	}
	if c := bits.OnesCount8(uint8(w)); c < k {
		w, base, k = w>>8, base+8, k-c
	}
	if c := bits.OnesCount8(uint8(w) & 0xf); c < k {
		w, base, k = w>>4, base+4, k-c
	}
	if c := bits.OnesCount8(uint8(w) & 3); c < k {
		w, base, k = w>>2, base+2, k-c
	}
	if int(w&1) < k {
		base++
	}
	return base
}
