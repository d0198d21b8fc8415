// Package cache implements the memory hierarchy timing model used by the
// Phloem evaluation: per-core L1 and L2, a shared L3, and a main-memory model
// with fixed minimum latency plus controller bandwidth queuing. Parameters
// default to Table III of the paper (Skylake-like).
//
// The model is a timing model only: it tracks tags and replacement state to
// decide hits and misses, and returns access latencies in cycles. Data always
// lives in the functional memory (internal/mem).
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
	Latency   uint64 // access latency in cycles (applied on hit at this level)
}

// HierarchyConfig describes the full memory system.
type HierarchyConfig struct {
	LineBytes int
	L1        Config // per core
	L2        Config // per core
	L3        Config // per core (scaled by core count, shared)
	// MemMinLatency is the minimum main-memory latency in cycles.
	MemMinLatency uint64
	// MemControllers is the number of memory controllers.
	MemControllers int
	// MemCyclesPerLine is the per-controller occupancy, in core cycles, of
	// transferring one cache line (bandwidth model). At 3.5 GHz and 25 GB/s
	// per controller, a 64-byte line occupies ~9 cycles.
	MemCyclesPerLine uint64
	Cores            int
}

// DefaultConfig returns the Table III memory system for the given core count.
func DefaultConfig(cores int) HierarchyConfig {
	return HierarchyConfig{
		LineBytes:        64,
		L1:               Config{SizeBytes: 32 << 10, Ways: 8, Latency: 4},
		L2:               Config{SizeBytes: 256 << 10, Ways: 8, Latency: 12},
		L3:               Config{SizeBytes: 2 << 20, Ways: 16, Latency: 40},
		MemMinLatency:    120,
		MemControllers:   2,
		MemCyclesPerLine: 9,
		Cores:            cores,
	}
}

// level is one set-associative cache with LRU replacement. Its lines live in
// one flat arena, set s at lines[s*ways : (s+1)*ways].
type level struct {
	lines   []line
	ways    int
	setMask uint64
	stamp   uint64
	hits    uint64
	misses  uint64
}

// line is one way. lru is the stamp of its last access; stamps start at 1,
// so lru == 0 marks an invalid (never filled) way.
type line struct {
	tag uint64
	lru uint64
}

func newLevel(cfg Config, lineBytes int) level {
	nLines := cfg.SizeBytes / lineBytes
	nSets := nLines / cfg.Ways
	if nSets < 1 {
		nSets = 1
	}
	// Round sets down to a power of two for cheap indexing.
	for nSets&(nSets-1) != 0 {
		nSets--
	}
	return level{
		lines:   make([]line, nSets*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(nSets - 1),
	}
}

// reset invalidates every line and zeroes the counters.
func (lv *level) reset() {
	clear(lv.lines)
	lv.stamp, lv.hits, lv.misses = 0, 0, 0
}

// access looks up lineAddr (already shifted) and returns true on hit.
// On miss the line is installed, evicting the LRU way.
func (lv *level) access(lineAddr uint64) bool {
	lv.stamp++
	base := int(lineAddr&lv.setMask) * lv.ways
	set := lv.lines[base : base+lv.ways : base+lv.ways]
	tag := lineAddr >> 1 // keep full address as tag; cheap and exact
	for i := range set {
		if set[i].tag == tag && set[i].lru != 0 {
			set[i].lru = lv.stamp
			lv.hits++
			return true
		}
	}
	lv.misses++
	// An invalid way has lru 0, below every valid one, so the scan prefers
	// the first invalid way after way 0 and falls back to way 0 when way 0
	// is the only one left invalid.
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru == 0 {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{tag: tag, lru: lv.stamp}
	return false
}

// Stats aggregates hit/miss counts across a run.
type Stats struct {
	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64
	L3Hits, L3Misses uint64
	MemAccesses      uint64
}

// Hierarchy is the complete memory system for one simulated machine.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  []level // per core
	l2  []level // per core
	l3  level   // shared
	// ctrlFree[i] is the cycle at which memory controller i is next free.
	ctrlFree []uint64
	memAcc   uint64
}

// NewHierarchy builds the memory system described by cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.Cores < 1 {
		panic(fmt.Sprintf("cache: invalid core count %d", cfg.Cores))
	}
	h := &Hierarchy{cfg: cfg, l1: make([]level, cfg.Cores), l2: make([]level, cfg.Cores)}
	for i := range h.l1 {
		h.l1[i] = newLevel(cfg.L1, cfg.LineBytes)
		h.l2[i] = newLevel(cfg.L2, cfg.LineBytes)
	}
	l3 := cfg.L3
	l3.SizeBytes *= cfg.Cores // the paper's L3 is 2 MB/core, shared
	h.l3 = newLevel(l3, cfg.LineBytes)
	h.ctrlFree = make([]uint64, cfg.MemControllers)
	return h
}

// Reset returns the hierarchy to the state NewHierarchy built it in: every
// line invalid, every counter and controller clock zero. A reset hierarchy
// replays an access stream exactly as a fresh one does.
func (h *Hierarchy) Reset() {
	for i := range h.l1 {
		h.l1[i].reset()
		h.l2[i].reset()
	}
	h.l3.reset()
	clear(h.ctrlFree)
	h.memAcc = 0
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Access simulates an access by core at byte address addr starting at cycle
// now, and returns the latency in cycles until the data is available plus
// whether the access missed in the L1 (and therefore occupies a fill buffer
// / MSHR until it completes). Writes are modeled with the same latency as
// reads (write-allocate).
func (h *Hierarchy) Access(core int, addr uint64, now uint64) (uint64, bool) {
	lineAddr := addr / uint64(h.cfg.LineBytes)
	if h.l1[core].access(lineAddr) {
		return h.cfg.L1.Latency, false
	}
	if h.l2[core].access(lineAddr) {
		return h.cfg.L2.Latency, true
	}
	if h.l3.access(lineAddr) {
		return h.cfg.L3.Latency, true
	}
	// Main memory: minimum latency plus bandwidth queuing on the least
	// loaded controller (addresses interleave across controllers by line).
	h.memAcc++
	c := int(lineAddr) % len(h.ctrlFree)
	start := now
	if h.ctrlFree[c] > start {
		start = h.ctrlFree[c]
	}
	h.ctrlFree[c] = start + h.cfg.MemCyclesPerLine
	return (start - now) + h.cfg.MemMinLatency, true
}

// Stats returns aggregate hit/miss counts summed over cores.
func (h *Hierarchy) Stats() Stats {
	var s Stats
	for i := range h.l1 {
		s.L1Hits += h.l1[i].hits
		s.L1Misses += h.l1[i].misses
		s.L2Hits += h.l2[i].hits
		s.L2Misses += h.l2[i].misses
	}
	s.L3Hits = h.l3.hits
	s.L3Misses = h.l3.misses
	s.MemAccesses = h.memAcc
	return s
}
