package core

// The checkpoint journal behind Options.Checkpoint/Resume: an append-only
// JSONL log of per-candidate training outcomes, keyed by the search
// engine's canonical candidate fingerprints under a program/arch/options
// hash. The merger records each unique candidate's measurement verdict as
// it finalizes (strictly in enumeration order), so an interrupted search
// leaves every completed measurement behind; a resumed search replays them
// instead of re-simulating, reproducing the uninterrupted winner, counters,
// skips, and SearchPoint order byte-identically.
//
// What is journaled: the serial baseline and, per unique candidate that
// entered measurement, either its completed training cycle count or its
// canonical measurement skip (deadlock, budget, trap, panic, error).
// Build and verify failures are NOT journaled — they are deterministic and
// cheap to recompute, and a resumed search must rebuild every pipeline
// anyway (the winner's stages, SearchPoint stage counts, and the Searched
// counter all need the built pipeline). Pruned and cancelled candidates
// are never journaled: pruning is recomputed, and a cancelled candidate
// has no verdict — nor does anything finalized after it, whose bound the
// cancelled slot failed to tighten.
//
// Why replay is sound: the journal key hashes the program (ir.Prog.Print),
// the arch config, and every option that shapes enumeration or budget
// evolution (MaxThreads, MaxCandidates, BudgetFactor, TopK, Exhaustive,
// passes, training-input count, search mode). Under an identical key the
// enumeration order and branch-and-bound bound sequence are identical, so
// a verdict recorded at a candidate's enumeration slot — including a
// budget abort, whose validity depends on the bound in force at that slot
// — is exactly the verdict an uninterrupted run reaches. Parallelism is
// deliberately excluded: results are bit-identical across Parallelism
// levels, so a journal written at -j 1 resumes correctly at -j 8.
//
// Corruption model: a crash can truncate the final line. Loading stops at
// the first unparsable or checksum-failing line, the file is truncated
// back to the last valid entry, and the lost measurements degrade to
// re-measurement — never a failure. A header whose key does not match the
// current search discards the journal entirely and starts fresh.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"sync"

	"phloem/internal/ir"
)

// journalVersion guards the entry schema; bump on incompatible changes.
const journalVersion = 1

// serialFP is the reserved fingerprint for the serial baseline (real
// candidate fingerprints always start with '|').
const serialFP = "serial"

// journalEntry is one JSONL line. The header line carries Key and Version;
// measurement lines carry FP plus either Cycles (completed) or
// Reason/Err (a measurement-phase skip).
type journalEntry struct {
	Kind    string `json:"kind"` // "header", "serial", or "cand"
	Version int    `json:"version,omitempty"`
	Key     string `json:"key,omitempty"`
	FP      string `json:"fp,omitempty"`
	Cycles  uint64 `json:"cycles,omitempty"`
	Reason  string `json:"reason,omitempty"` // "" = completed measurement
	Err     string `json:"err,omitempty"`
	Sum     uint32 `json:"sum"` // crc32 over the other fields
}

// checksum covers every field except Sum itself, so a partially written or
// bit-flipped line is detected and treated as corruption.
func (e *journalEntry) checksum() uint32 {
	h := crc32.NewIEEE()
	fmt.Fprintf(h, "%s\x00%d\x00%s\x00%s\x00%d\x00%s\x00%s",
		e.Kind, e.Version, e.Key, e.FP, e.Cycles, e.Reason, e.Err)
	return h.Sum32()
}

// replayedError carries a journaled error message so replayed skips render
// byte-identically to the original failure.
type replayedError struct{ msg string }

func (e *replayedError) Error() string { return e.msg }

// journal is the open checkpoint file plus its loaded entries. All methods
// are safe on a nil receiver (no checkpoint configured) and safe for
// concurrent use: workers look up entries while the merger records new
// ones.
type journal struct {
	mu       sync.Mutex
	f        *os.File
	key      string
	entries  map[string]*journalEntry // candidate fingerprint -> entry
	serial   *journalEntry
	replayed int
	// cut is set once a cancelled candidate has been finalized; no later
	// verdict is recorded.
	cut bool
}

// journalKey hashes everything that shapes the search: the program text,
// the target machine, and every option influencing enumeration or budget
// evolution. mode distinguishes autotune (serial incumbent) from Search
// (no incumbent) — their bound sequences differ, so their budget-abort
// verdicts are not interchangeable.
func journalKey(p *ir.Prog, opt Options, mode string) string {
	h := fnv.New64a()
	io.WriteString(h, mode)
	io.WriteString(h, "\x00")
	io.WriteString(h, p.Print())
	fmt.Fprintf(h, "\x00arch=%+v", opt.Machine)
	fmt.Fprintf(h, "\x00passes=%+v", opt.Passes)
	fmt.Fprintf(h, "\x00opt=%d,%d,%d,%d,%v,%v,%v,%d",
		opt.MaxThreads, opt.MaxCandidates, opt.BudgetFactor, opt.TopK,
		opt.Exhaustive, opt.EnableAblation, opt.SkipVerify, len(opt.Training))
	return fmt.Sprintf("%016x", h.Sum64())
}

// openJournal opens (or creates) the checkpoint journal for this search.
// With Resume set it loads every valid entry recorded under a matching
// key; otherwise — or on a key mismatch — the file restarts empty. A nil
// journal (no error) is returned when no checkpoint is configured.
func openJournal(p *ir.Prog, opt Options, mode string) (*journal, error) {
	if opt.Checkpoint == "" {
		return nil, nil
	}
	f, err := os.OpenFile(opt.Checkpoint, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: open checkpoint journal: %w", err)
	}
	j := &journal{
		f:       f,
		key:     journalKey(p, opt, mode),
		entries: map[string]*journalEntry{},
	}
	keep := int64(0)
	if opt.Resume {
		keep = j.load()
	}
	// Drop everything past the valid prefix (corrupt tail, key-mismatched
	// or non-resumed content) and position appends after it.
	if err := f.Truncate(keep); err != nil {
		j.disable()
		return j, nil
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		j.disable()
		return j, nil
	}
	if keep == 0 {
		j.append(&journalEntry{Kind: "header", Version: journalVersion, Key: j.key})
	}
	return j, nil
}

// load scans the journal and returns the byte length of its valid prefix:
// 0 unless the first line is an intact header for this exact search key,
// otherwise the end of the last intact entry line. Entries beyond the
// returned offset are lost to corruption and will be re-measured.
func (j *journal) load() int64 {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return 0
	}
	sc := bufio.NewScanner(j.f)
	// Journaled deadlock snapshots can run long; allow large lines.
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	valid := int64(0)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Sum != e.checksum() {
			return valid
		}
		if first {
			first = false
			if e.Kind != "header" || e.Version != journalVersion || e.Key != j.key {
				return 0
			}
			valid += int64(len(line)) + 1
			continue
		}
		switch e.Kind {
		case "serial":
			ec := e
			j.serial = &ec
		case "cand":
			if e.FP != "" {
				ec := e
				j.entries[e.FP] = &ec
			}
		}
		valid += int64(len(line)) + 1
	}
	return valid
}

// disable turns the journal off after an I/O failure: the search must
// never crash or stall on checkpoint trouble, it just stops checkpointing.
func (j *journal) disable() {
	j.f.Close()
	j.f = nil
}

// append writes one entry line. Caller holds mu (or is still
// single-threaded during open).
func (j *journal) append(e *journalEntry) {
	if j.f == nil {
		return
	}
	e.Sum = e.checksum()
	b, err := json.Marshal(e)
	if err != nil {
		j.disable()
		return
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		j.disable()
	}
}

// close releases the file; the journal is append-only so there is nothing
// to flush beyond the OS buffer.
func (j *journal) close() {
	if j == nil || j.f == nil {
		return
	}
	j.f.Close()
	j.f = nil
}

// serialCycles returns the journaled serial-baseline measurement, if any.
func (j *journal) serialCycles() (uint64, bool) {
	if j == nil || j.serial == nil {
		return 0, false
	}
	j.mu.Lock()
	j.replayed++
	j.mu.Unlock()
	return j.serial.Cycles, true
}

// recordSerial journals the serial-baseline measurement.
func (j *journal) recordSerial(cycles uint64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.serial != nil {
		return
	}
	e := &journalEntry{Kind: "serial", FP: serialFP, Cycles: cycles}
	j.serial = e
	j.append(e)
}

// lookup returns the journaled outcome for a candidate fingerprint. Safe
// from worker goroutines.
func (j *journal) lookup(fp string) (*journalEntry, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[fp]
	if ok {
		j.replayed++
	}
	return e, ok
}

// replayCount returns how many journal entries this search replayed.
func (j *journal) replayCount() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replayed
}

// record journals a finalized unique candidate's measurement verdict.
// Only measurement outcomes are recorded: the candidate must have built
// (f.pipe != nil), and pruned/cancelled verdicts are skipped (see the
// package comment). A cancelled slot never tightened the bound, so every
// later slot was finalized under a looser one than an uninterrupted run
// uses there: nothing after the first is recorded. Called by the merger,
// in enumeration order.
func (j *journal) record(fp string, f *candFinal) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if f.skip != nil && f.skip.Reason == SkipCancelled {
		j.cut = true
	}
	if _, ok := j.entries[fp]; ok || j.cut || f.pipe == nil {
		return // already journaled (a replayed entry), past a cancelled slot, or never built
	}
	e := &journalEntry{Kind: "cand", FP: fp}
	if f.skip != nil {
		switch f.skip.Reason {
		case SkipPruned, SkipBuild, SkipVerifier:
			return
		}
		e.Reason = f.skip.Reason.String()
		if f.skip.Err != nil {
			e.Err = f.skip.Err.Error()
		}
	} else {
		e.Cycles = f.cycles
	}
	j.entries[fp] = e
	j.append(e)
}

// replaySkip reconstructs a journaled measurement skip for a candidate.
// Budget skips rebuild the canonical errBudget (their recorded text);
// every other reason carries its original error text verbatim, so the
// resumed run's skip list renders byte-identically to the uninterrupted
// run's.
func replaySkip(t *candTask, e *journalEntry) *CandidateSkip {
	reason, ok := ParseSkipReason(e.Reason)
	if !ok {
		reason = SkipError
	}
	var err error
	if reason == SkipBudget && e.Err == errBudget.Error() {
		err = errBudget
	} else {
		err = &replayedError{msg: e.Err}
	}
	return &CandidateSkip{Phase: t.phase, Subset: t.subset, Reason: reason, Err: err}
}
