package obs_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"phloem/internal/core"
	"phloem/internal/obs"
	"phloem/internal/workloads"
)

// TestProgressFixture drives Progress with the synthetic stream and checks
// the rendered lines: baseline, counters, final summary. Event offsets drive
// the clock, so the output is deterministic.
func TestProgressFixture(t *testing.T) {
	var buf bytes.Buffer
	p := obs.NewProgress(&buf)
	for _, e := range fixtureEvents() {
		p.Observe(e)
	}
	out := buf.String()
	for _, want := range []string{
		"autotune: serial baseline 120000 cycles",
		"2/2 measured", // accept + budget skip; dedup and prune excluded
		"1 deduped",
		"1 pruned",
		"best 95000 cycles",
		"done —",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "checkpoint journal") {
		t.Errorf("no replays in fixture, but output mentions the journal:\n%s", out)
	}
}

// TestProgressReplaySummary: a replayed serial baseline and a non-zero
// journal count on search-end surface the checkpoint summary lines.
func TestProgressReplaySummary(t *testing.T) {
	var buf bytes.Buffer
	p := obs.NewProgress(&buf)
	events := []core.SearchEvent{
		{Kind: core.EvSearchStart, Seq: -1, Phase: -1, Mode: "autotune"},
		{Kind: core.EvSerial, Seq: -1, Phase: -1, Cycles: 1000, Replayed: true},
		{Kind: core.EvEnumerated, Seq: 0, Phase: -1, FP: "|1,"},
		{Kind: core.EvReplay, Seq: 0, Phase: -1, FP: "|1,", Cycles: 900, Replayed: true},
		{Kind: core.EvAccept, Seq: 0, Phase: -1, FP: "|1,", Cycles: 900, Replayed: true,
			Start: 5 * time.Millisecond, End: 5 * time.Millisecond},
		{Kind: core.EvSearchEnd, Seq: -1, Phase: -1, Mode: "autotune", Cycles: 900, N: 2,
			Start: 6 * time.Millisecond, End: 6 * time.Millisecond},
	}
	for _, e := range events {
		p.Observe(e)
	}
	out := buf.String()
	for _, want := range []string{
		"replayed from checkpoint",
		"replayed 2 measurement(s) from the checkpoint journal",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

// TestProgressLiveAutotune smoke-tests Progress against a real search teed
// with a SearchCollector, asserting the final line agrees with the aggregate.
func TestProgressLiveAutotune(t *testing.T) {
	var buf bytes.Buffer
	col := obs.NewSearchCollector()
	opt := autotuneOpts(1)
	opt.Observer = obs.Tee{obs.NewProgress(&buf), col}
	res, err := core.CompileSource(workloads.BFSSource, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := col.Metrics()
	if !strings.Contains(buf.String(), "done —") {
		t.Errorf("no final summary in progress output:\n%s", buf.String())
	}
	if m.BestCycles != res.TrainCycles {
		t.Errorf("aggregate best %d, result %d", m.BestCycles, res.TrainCycles)
	}
	if m.Enumerated != res.Enumerated || m.Deduped != res.Deduped || m.Pruned != res.Pruned {
		t.Errorf("aggregate counters (%d,%d,%d) disagree with Result (%d,%d,%d)",
			m.Enumerated, m.Deduped, m.Pruned, res.Enumerated, res.Deduped, res.Pruned)
	}
}
