package cache

import (
	"math/rand"
	"testing"
)

func TestHitAfterMiss(t *testing.T) {
	h := NewHierarchy(DefaultConfig(1))
	lat1, miss1 := h.Access(0, 0x1000, 0)
	if !miss1 || lat1 < DefaultConfig(1).MemMinLatency {
		t.Errorf("cold access should miss to memory: lat=%d miss=%v", lat1, miss1)
	}
	lat2, miss2 := h.Access(0, 0x1000, 100)
	if miss2 || lat2 != DefaultConfig(1).L1.Latency {
		t.Errorf("second access should hit L1: lat=%d miss=%v", lat2, miss2)
	}
	// Same line, different word: still a hit.
	lat3, _ := h.Access(0, 0x1008, 200)
	if lat3 != DefaultConfig(1).L1.Latency {
		t.Errorf("same-line access should hit: lat=%d", lat3)
	}
}

func TestLRUWithinSet(t *testing.T) {
	cfg := DefaultConfig(1)
	h := NewHierarchy(cfg)
	l1Sets := cfg.L1.SizeBytes / cfg.LineBytes / cfg.L1.Ways
	// Fill one L1 set with Ways+1 lines: the first should be evicted.
	stride := uint64(l1Sets * cfg.LineBytes)
	for i := 0; i <= cfg.L1.Ways; i++ {
		h.Access(0, uint64(i)*stride, uint64(i))
	}
	lat, _ := h.Access(0, 0, 1000)
	if lat == cfg.L1.Latency {
		t.Error("first line should have been evicted from L1")
	}
}

func TestL2Capture(t *testing.T) {
	cfg := DefaultConfig(1)
	h := NewHierarchy(cfg)
	h.Access(0, 0x4000, 0) // to memory
	// Evict from L1 by filling its set.
	l1Sets := cfg.L1.SizeBytes / cfg.LineBytes / cfg.L1.Ways
	stride := uint64(l1Sets * cfg.LineBytes)
	for i := 1; i <= cfg.L1.Ways; i++ {
		h.Access(0, 0x4000+uint64(i)*stride, uint64(i))
	}
	lat, miss := h.Access(0, 0x4000, 500)
	if lat != cfg.L2.Latency || !miss {
		t.Errorf("expected an L2 hit (lat %d), got lat=%d miss=%v", cfg.L2.Latency, lat, miss)
	}
}

func TestPerCorePrivacy(t *testing.T) {
	h := NewHierarchy(DefaultConfig(2))
	h.Access(0, 0x8000, 0)
	// Core 1 should not hit core 0's L1/L2, but shares L3.
	lat, _ := h.Access(1, 0x8000, 100)
	if lat != DefaultConfig(2).L3.Latency {
		t.Errorf("cross-core access should hit shared L3: lat=%d", lat)
	}
}

func TestMemoryBandwidthQueuing(t *testing.T) {
	cfg := DefaultConfig(1)
	h := NewHierarchy(cfg)
	// Issue many distinct-line accesses at the same cycle: controller
	// occupancy must serialize them.
	var last uint64
	for i := 0; i < 32; i++ {
		lat, _ := h.Access(0, uint64(i)*1<<20, 0)
		if lat > last {
			last = lat
		}
	}
	if last <= cfg.MemMinLatency {
		t.Errorf("bandwidth queuing should raise the worst latency above %d, got %d",
			cfg.MemMinLatency, last)
	}
	st := h.Stats()
	if st.MemAccesses != 32 {
		t.Errorf("expected 32 memory accesses, got %d", st.MemAccesses)
	}
}

// accessStream is a seeded random access stream over two cores: addresses
// within 8 MB, so that every level hits and misses, at non-decreasing cycles
// bunched closely enough to queue on the memory controllers.
func accessStream(seed int64, n int) (cores []int, addrs, nows []uint64) {
	rng := rand.New(rand.NewSource(seed))
	now := uint64(0)
	for i := 0; i < n; i++ {
		now += uint64(rng.Intn(3))
		cores = append(cores, rng.Intn(2))
		addrs = append(addrs, uint64(rng.Intn(8<<20)))
		nows = append(nows, now)
	}
	return cores, addrs, nows
}

// TestResetMatchesFresh: a hierarchy dirtied by one stream and then Reset
// replays a second stream exactly as a fresh hierarchy does, access for
// access, and ends with the same Stats.
func TestResetMatchesFresh(t *testing.T) {
	cfg := DefaultConfig(2)
	recycled := NewHierarchy(cfg)
	cores, addrs, nows := accessStream(1, 200000)
	for i := range cores {
		recycled.Access(cores[i], addrs[i], nows[i])
	}
	if recycled.Stats() == (Stats{}) {
		t.Fatal("the dirtying stream left no trace in Stats")
	}
	recycled.Reset()
	if st := recycled.Stats(); st != (Stats{}) {
		t.Fatalf("Reset left counters behind: %+v", st)
	}
	fresh := NewHierarchy(cfg)
	cores, addrs, nows = accessStream(2, 200000)
	for i := range cores {
		fl, fm := fresh.Access(cores[i], addrs[i], nows[i])
		rl, rm := recycled.Access(cores[i], addrs[i], nows[i])
		if fl != rl || fm != rm {
			t.Fatalf("access %d (core %d, addr %#x, cycle %d): fresh (%d, %v), recycled (%d, %v)",
				i, cores[i], addrs[i], nows[i], fl, fm, rl, rm)
		}
	}
	if f, r := fresh.Stats(), recycled.Stats(); f != r {
		t.Errorf("final Stats differ:\nfresh    %+v\nrecycled %+v", f, r)
	}
}

// TestVictimPrefersWayOne pins the victim scan's order on a set whose ways 0
// and 1 are both invalid: the miss fills way 1, later misses fill ways 2..n-1,
// and way 0 is filled last, also after a Reset.
func TestVictimPrefersWayOne(t *testing.T) {
	cfg := DefaultConfig(1)
	h := NewHierarchy(cfg)
	for round := 0; round < 2; round++ {
		lv := &h.l1[0]
		sets := int(lv.setMask) + 1
		stride := uint64(sets * cfg.LineBytes)
		for i := 0; i < cfg.L1.Ways; i++ {
			h.Access(0, uint64(i)*stride, uint64(i))
			want := i + 1
			if i == cfg.L1.Ways-1 {
				want = 0
			}
			if got := lv.lines[want]; got.lru == 0 || got.tag != uint64(i*sets)>>1 {
				t.Fatalf("round %d, miss %d: way %d holds %+v, want the new line", round, i, want, got)
			}
			if i < cfg.L1.Ways-1 && lv.lines[0].lru != 0 {
				t.Fatalf("round %d, miss %d: way 0 filled before the other ways", round, i)
			}
		}
		h.Reset()
	}
}
