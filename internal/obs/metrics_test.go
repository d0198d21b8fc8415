package obs_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"phloem/internal/core"
	"phloem/internal/obs"
)

// fixtureEvents is a synthetic autotune stream with fixed wall-time offsets,
// so the rendered metrics are fully deterministic and golden-testable:
// four candidates — one accepted, one deduped, one pruned, one budget-skip —
// over a 400ms search on two workers.
func fixtureEvents() []core.SearchEvent {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	span := func(e core.SearchEvent, from, to int) core.SearchEvent {
		e.Start, e.End = ms(from), ms(to)
		return e
	}
	at := func(e core.SearchEvent, t int) core.SearchEvent { return span(e, t, t) }
	return []core.SearchEvent{
		at(core.SearchEvent{Kind: core.EvSearchStart, Seq: -1, Phase: -1, Mode: "autotune"}, 0),
		span(core.SearchEvent{Kind: core.EvSerial, Seq: -1, Phase: -1, Cycles: 120000}, 0, 40),
		at(core.SearchEvent{Kind: core.EvEnumerated, Seq: 0, Phase: -1, FP: "|3,7,"}, 41),
		at(core.SearchEvent{Kind: core.EvEnumerated, Seq: 1, Phase: 0, Subset: []int{0}, FP: "|3,"}, 41),
		at(core.SearchEvent{Kind: core.EvEnumerated, Seq: 2, Phase: 0, Subset: []int{0, 1}, FP: "|3,7,", Dup: true}, 41),
		at(core.SearchEvent{Kind: core.EvEnumerated, Seq: 3, Phase: 0, Subset: []int{1}, FP: "|7,"}, 41),
		span(core.SearchEvent{Kind: core.EvBuild, Seq: 0, Phase: -1, FP: "|3,7,"}, 42, 45),
		span(core.SearchEvent{Kind: core.EvBuild, Seq: 1, Phase: 0, Subset: []int{0}, FP: "|3,"}, 45, 47),
		span(core.SearchEvent{Kind: core.EvBuild, Seq: 3, Phase: 0, Subset: []int{1}, FP: "|7,"}, 47, 52),
		span(core.SearchEvent{Kind: core.EvRank, Seq: -1, Phase: -1, N: 1}, 42, 54),
		span(core.SearchEvent{Kind: core.EvVerify, Seq: 0, Phase: -1, FP: "|3,7,"}, 55, 56),
		span(core.SearchEvent{Kind: core.EvTrain, Seq: 0, Phase: -1, FP: "|3,7,", Cycles: 95000}, 56, 200),
		at(core.SearchEvent{Kind: core.EvAccept, Seq: 0, Phase: -1, FP: "|3,7,", Cycles: 95000, Pred: 900, PredRank: 1}, 201),
		span(core.SearchEvent{Kind: core.EvVerify, Seq: 1, Phase: 0, Subset: []int{0}, FP: "|3,", Worker: 1}, 202, 203),
		span(core.SearchEvent{Kind: core.EvTrain, Seq: 1, Phase: 0, Subset: []int{0}, FP: "|3,", Worker: 1,
			Cycles: 60000, Err: errors.New("cycle budget exhausted")}, 203, 390),
		at(core.SearchEvent{Kind: core.EvSkip, Seq: 1, Phase: 0, Subset: []int{0}, FP: "|3,", Pred: 1100, PredRank: 2,
			Skip: &core.CandidateSkip{Phase: 0, Subset: []int{0}, Reason: core.SkipBudget}}, 391),
		at(core.SearchEvent{Kind: core.EvDeduped, Seq: 2, Phase: 0, Subset: []int{0, 1}, FP: "|3,7,", Cycles: 95000}, 392),
		at(core.SearchEvent{Kind: core.EvPruned, Seq: 3, Phase: 0, Subset: []int{1}, FP: "|7,", Pred: 4000, PredRank: 3}, 393),
		at(core.SearchEvent{Kind: core.EvSearchEnd, Seq: -1, Phase: -1, Mode: "autotune", Cycles: 95000}, 400),
	}
}

func TestAggregateFixture(t *testing.T) {
	m := obs.Aggregate(fixtureEvents())
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"mode", m.Mode, "autotune"},
		{"enumerated", m.Enumerated, 4},
		{"unique", m.Unique, 3},
		{"deduped", m.Deduped, 1},
		{"pruned", m.Pruned, 1},
		{"accepted", m.Accepted, 1},
		{"skipped", m.Skipped, 1},
		{"trained", m.Trained, 2},
		{"serial cycles", m.SerialCycles, uint64(120000)},
		{"best cycles", m.BestCycles, uint64(95000)},
		{"workers", m.Workers, 2},
		{"total micros", m.TotalMicros, int64(400000)},
		{"train cycles", m.TrainCycles, uint64(155000)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// Train phase: 144ms + 187ms = 331ms; throughput 155000/331 cycles/ms.
	var train *obs.PhaseMetrics
	for i := range m.Phases {
		if m.Phases[i].Name == "train" {
			train = &m.Phases[i]
		}
	}
	if train == nil {
		t.Fatal("no train phase aggregate")
	}
	if train.TotalMicros != 331000 {
		t.Errorf("train total %d micros, want 331000", train.TotalMicros)
	}
	if want := float64(155000) / 331; m.CyclesPerMs != want {
		t.Errorf("cycles/ms = %v, want %v", m.CyclesPerMs, want)
	}
}

func TestMetricsGolden(t *testing.T) {
	m := obs.Aggregate(fixtureEvents())
	golden(t, "metrics.txt", []byte(m.String()))
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden(t, "metrics.json", buf.Bytes())
}

func TestTeeFansOut(t *testing.T) {
	a, b := obs.NewSearchCollector(), obs.NewSearchCollector()
	tee := obs.Tee{a, nil, b}
	for _, e := range fixtureEvents() {
		tee.Observe(e)
	}
	if a.Len() != b.Len() || a.Len() != len(fixtureEvents()) {
		t.Errorf("tee delivered %d/%d events, want %d both", a.Len(), b.Len(), len(fixtureEvents()))
	}
}
