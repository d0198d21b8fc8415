package bench

// The search-engine benchmark: autotunes every benchmark in the suite three
// ways at the configured worker parallelism — the pre-engine baseline (every
// candidate measured to completion, no branch-and-bound pruning), the
// engine, and the engine with Options.TopK static rank-and-prune. The
// baseline must agree with the engine on the winning pipeline; the top-K leg
// records whether its winner agrees too (pruning by static prediction is
// allowed to miss, so disagreement is reported, not fatal). The report
// carries the engine's candidate counts and winner, the top-K leg's pruning
// counts, and the per-benchmark Spearman correlation between the static cost
// model's predicted cycles and the simulator's measured cycles. Every number
// is identical at every parallelism; search wall time is measured by
// benchmark/ (autotune-graph). `phloembench -exp search` writes the report
// to BENCH_search.json.

import (
	"fmt"

	"phloem/internal/core"
	"phloem/internal/costmodel"
	"phloem/internal/workloads"
)

// DefaultSearchTopK is the K the SearchPerf top-K leg uses when Config.TopK
// is zero — the same K the cross-benchmark winner-agreement test pins.
const DefaultSearchTopK = 5

// SearchRow is one benchmark's search measurement across the three legs.
type SearchRow struct {
	Name string `json:"name"`
	// Enumerated counts candidate configurations walked (duplicates
	// included); Searched, Deduped, and Skipped split them up.
	Enumerated int `json:"enumerated"`
	Searched   int `json:"searched"`
	Deduped    int `json:"deduped"`
	Skipped    int `json:"skipped"`
	// BestStages/BestCycles identify the winning pipeline (identical
	// across the baseline and engine legs by construction; the top-K leg's
	// winner is reported separately via TopKCycles/TopKAgrees).
	BestStages int    `json:"best_stages"`
	BestCycles uint64 `json:"best_train_cycles"`
	// The top-K leg: the engine with Options.TopK rank-and-prune.
	TopKPruned   int `json:"topk_pruned"`
	TopKMeasured int `json:"topk_measured"`
	// TopKAgrees reports whether the top-K leg selected the same winner
	// (description and training cycles) as the unpruned engine.
	TopKAgrees bool `json:"topk_agrees"`
	// TopKCycles is the top-K leg winner's training cycle count (equals
	// BestCycles when TopKAgrees).
	TopKCycles uint64 `json:"topk_train_cycles"`
	// RankCorrelation is the Spearman rank correlation between the cost
	// model's predicted cycles and the simulator's measured training cycles
	// over this benchmark's measured (non-skipped) candidates, taken from
	// the exhaustive baseline leg when it ran (every candidate measured to
	// completion) and the engine leg otherwise. RankPoints is the number of
	// candidates behind the number; 0 or 1 point yields 0.
	RankCorrelation float64 `json:"rank_correlation"`
	RankPoints      int     `json:"rank_points"`
}

// SearchReport is the BENCH_search.json schema.
type SearchReport struct {
	Header
	// TopK is the K the top-K leg pruned to.
	TopK       int         `json:"topk"`
	Benchmarks []SearchRow `json:"benchmarks"`
	// MeanRankCorrelation averages RankCorrelation over benchmarks with 2+
	// measured points.
	MeanRankCorrelation float64 `json:"mean_rank_correlation"`
}

// gated lists the counts, winner cycles and top-K agreement. The rank
// correlation is not gated: it depends on whether the baseline leg ran.
func (r *SearchReport) gated() []gated {
	out := []gated{countOf("", "topk", r.TopK)}
	for _, b := range r.Benchmarks {
		out = append(out,
			countOf(b.Name, "enumerated", b.Enumerated),
			countOf(b.Name, "searched", b.Searched),
			countOf(b.Name, "deduped", b.Deduped),
			countOf(b.Name, "skipped", b.Skipped),
			countOf(b.Name, "best_stages", b.BestStages),
			cyclesOf(b.Name, "best_train_cycles", b.BestCycles),
			countOf(b.Name, "topk_pruned", b.TopKPruned),
			countOf(b.Name, "topk_measured", b.TopKMeasured),
			cyclesOf(b.Name, "topk_train_cycles", b.TopKCycles),
			flagOf(b.Name, "topk_agrees", b.TopKAgrees))
	}
	return out
}

// rerun regenerates the report at its own K. The baseline leg is skipped:
// no gated value depends on it, and it triples the run time.
func (r *SearchReport) rerun(cfg Config) (Report, error) {
	cfg.TopK = r.TopK
	cfg.SkipSearchBaseline = true
	return SearchPerf(cfg)
}

// searchSignature summarizes everything observable about an autotune result;
// runs at any parallelism, and a resumed run, must agree on it exactly.
func searchSignature(res *core.Result) string {
	sig := fmt.Sprintf("best=%q stages=%d ras=%d cycles=%d searched=%d deduped=%d enum=%d",
		res.Pipeline.Description, res.Pipeline.NumStages(), len(res.Pipeline.RAs),
		res.TrainCycles, res.Searched, res.Deduped, res.Enumerated)
	for _, s := range res.Skips {
		sig += fmt.Sprintf("|skip phase=%d subset=%v reason=%s err=%v", s.Phase, s.Subset, s.Reason, s.Err)
	}
	for _, p := range res.Points {
		sig += fmt.Sprintf("|pt subset=%v stages=%d cycles=%d pred=%d rank=%d skipped=%v",
			p.Subset, p.TotalStages, p.Cycles, p.PredictedCycles, p.PredictedRank, p.Skip != nil)
	}
	return sig
}

// rankCorrelation computes the Spearman correlation between predicted and
// measured cycles over a result's measured (non-skipped, priced) candidates.
func rankCorrelation(res *core.Result) (corr float64, n int) {
	var pred, meas []float64
	for _, pt := range res.Points {
		if pt.Skip == nil && pt.PredictedCycles > 0 {
			pred = append(pred, float64(pt.PredictedCycles))
			meas = append(meas, float64(pt.Cycles))
		}
	}
	return costmodel.SpearmanRank(pred, meas), len(pred)
}

// SearchPerf runs the baseline, engine and top-K autotune legs over the
// whole suite and returns the report. Parallelism and TopK come from cfg
// (0 = GOMAXPROCS / DefaultSearchTopK); cfg.SkipSearchBaseline drops the
// (slow) baseline leg.
func SearchPerf(cfg Config) (*SearchReport, error) {
	topK := cfg.TopK
	if topK <= 0 {
		topK = DefaultSearchTopK
	}
	rep := &SearchReport{Header: newHeader(KindSearch, cfg.Scale), TopK: topK}
	cfg.printf("\nSearch engine: exhaustive baseline vs branch-and-bound engine vs top-%d autotune\n", topK)
	cfg.printf("%-8s %6s %6s %6s %6s %6s %12s %6s %6s %6s %6s\n",
		"bench", "enum", "meas", "dedup", "skip", "stages", "train cycles", "pruned", "agree", "rho", "points")
	for _, bench := range workloads.Benchmarks(cfg.Scale) {
		prog, err := workloads.CompileSerial(bench.SerialSource)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bench.Name, err)
		}
		run := func(exhaustive bool, topk int) (*core.Result, error) {
			opt := autotuneOptions(cfg, bench)
			opt.Exhaustive = exhaustive
			opt.TopK = topk
			res, err := core.Compile(prog, opt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", bench.Name, err)
			}
			return res, nil
		}
		var baseRes *core.Result
		if !cfg.SkipSearchBaseline {
			if baseRes, err = run(true, 0); err != nil {
				return nil, err
			}
		}
		engRes, err := run(false, 0)
		if err != nil {
			return nil, err
		}
		topRes, err := run(false, topK)
		if err != nil {
			return nil, err
		}
		// The exhaustive baseline measures every candidate to completion, so
		// its points give the model the fairest grading; the engine's
		// branch-and-bound leg aborts losers early and grades on fewer.
		corrRes := engRes
		if baseRes != nil {
			// Pruning only aborts losers, so the exhaustive baseline must
			// crown the same winner with the same training cycle count.
			if baseRes.Pipeline.Description != engRes.Pipeline.Description ||
				baseRes.TrainCycles != engRes.TrainCycles {
				return nil, fmt.Errorf("%s: baseline search picked %q (%d cycles), engine picked %q (%d cycles)",
					bench.Name, baseRes.Pipeline.Description, baseRes.TrainCycles,
					engRes.Pipeline.Description, engRes.TrainCycles)
			}
			corrRes = baseRes
		}
		row := SearchRow{
			Name:         bench.Name,
			Enumerated:   engRes.Enumerated,
			Searched:     engRes.Searched,
			Deduped:      engRes.Deduped,
			Skipped:      len(engRes.Skips),
			BestStages:   engRes.Pipeline.NumStages(),
			BestCycles:   engRes.TrainCycles,
			TopKPruned:   topRes.Pruned,
			TopKMeasured: topRes.Searched - 1, // exclude the serial baseline
			TopKCycles:   topRes.TrainCycles,
			TopKAgrees: topRes.Pipeline.Description == engRes.Pipeline.Description &&
				topRes.TrainCycles == engRes.TrainCycles,
		}
		row.RankCorrelation, row.RankPoints = rankCorrelation(corrRes)
		rep.Benchmarks = append(rep.Benchmarks, row)
		agree := "yes"
		if !row.TopKAgrees {
			agree = "NO"
		}
		cfg.printf("%-8s %6d %6d %6d %6d %6d %12d %6d %6s %+6.2f %6d\n",
			row.Name, row.Enumerated, row.Searched, row.Deduped, row.Skipped, row.BestStages,
			row.BestCycles, row.TopKPruned, agree, row.RankCorrelation, row.RankPoints)
	}
	nCorr := 0
	for _, row := range rep.Benchmarks {
		if row.RankPoints >= 2 {
			rep.MeanRankCorrelation += row.RankCorrelation
			nCorr++
		}
	}
	if nCorr > 0 {
		rep.MeanRankCorrelation /= float64(nCorr)
	}
	cfg.printf("mean rank correlation %+.2f\n", rep.MeanRankCorrelation)
	return rep, nil
}

// SearchPerfJSON runs SearchPerf and writes the report to path.
func SearchPerfJSON(cfg Config, path string) error {
	rep, err := SearchPerf(cfg)
	if err != nil {
		return err
	}
	return writeReport(rep, path)
}
