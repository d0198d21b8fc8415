package bench

// The benchmark regression gate behind `phloembench -exp compare` and
// `phloembench -benchdiff`: diff a fresh run (or any report file) against a
// committed BENCH_*.json with per-metric thresholds. Every report lists the
// values it submits to the gate — counts, simulator cycles and must-stay-true
// flags, all deterministic for a given scale — and one differ compares them,
// so the thresholds exist to absorb intentional small shifts (a pass
// reordering, a calibration tweak), not host noise; anything beyond them is
// a regression CI should fail on. The reports carry no wall-clock columns:
// wall-time evidence lives in benchmark/.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"phloem/internal/workloads"
)

// Report kinds, recorded in every report header.
const (
	KindSearch  = "search"
	KindCommOpt = "commopt"
	KindNative  = "native"
)

// Header is the metadata block every BENCH_*.json report carries: which
// report it is and the input scale that produced its numbers.
type Header struct {
	Kind  string `json:"kind"`
	Scale string `json:"scale"`
}

func newHeader(kind string, scale workloads.Scale) Header {
	s := "test"
	if scale == workloads.ScaleFull {
		s = "full"
	}
	return Header{Kind: kind, Scale: s}
}

func (h Header) header() Header { return h }

// parseScale maps a report's scale string back to the workloads scale.
func parseScale(s string) workloads.Scale {
	if s == "full" {
		return workloads.ScaleFull
	}
	return workloads.ScaleTest
}

// Report is one BENCH_*.json report.
type Report interface {
	header() Header
	// gated lists the values the differ compares, in report order.
	gated() []gated
	// rerun regenerates the report with its own settings (the caller sets
	// cfg.Scale from the header).
	rerun(cfg Config) (Report, error)
}

// metricKind says how the differ compares a gated value.
type metricKind int

const (
	count  metricKind = iota // exact, two-sided CountTol drift
	cycles                   // lower is better, one-sided CyclesTolPct (CountTol when old is 0)
	flag                     // must stay true
)

// gated is one value a report submits to the differ. bench names the row
// ("" for report-level values).
type gated struct {
	bench, metric string
	kind          metricKind
	v             float64
}

func countOf(bench, metric string, v int) gated {
	return gated{bench, metric, count, float64(v)}
}

func cyclesOf(bench, metric string, v uint64) gated {
	return gated{bench, metric, cycles, float64(v)}
}

func flagOf(bench, metric string, v bool) gated {
	f := gated{bench, metric, flag, 0}
	if v {
		f.v = 1
	}
	return f
}

// DiffOptions sets the regression thresholds.
type DiffOptions struct {
	// CyclesTolPct is the relative tolerance (percent) on cycle metrics:
	// new > old*(1+tol/100) is a regression. Cycle improvements are reported
	// but never fatal. Applied to stall counters the same way.
	CyclesTolPct float64
	// CountTol is the absolute drift allowed on count metrics (enumerated,
	// searched, stages, pruned...), in either direction: counts are exact
	// search results, so the default 0 means any change is flagged.
	CountTol int
}

// DefaultDiffOptions matches the CI gate: generous 10% on cycles, exact on
// counts.
func DefaultDiffOptions() DiffOptions {
	return DiffOptions{CyclesTolPct: 10}
}

// DiffFinding is one metric's old-vs-new comparison outcome.
type DiffFinding struct {
	Bench  string  `json:"bench"` // "" for report-level metrics
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// Regression marks a change beyond threshold in the bad direction (or a
	// structural mismatch); Changed marks any difference at all.
	Regression bool   `json:"regression"`
	Changed    bool   `json:"changed"`
	Note       string `json:"note,omitempty"`
}

// Diff compares two reports of one kind value by value. A scale mismatch is
// a single structural regression (nothing is comparable). A row or value the
// old report has and the new one lacks is a structural regression, and so is
// a row only the new report has (the committed report is stale); a value
// only the new report has, within a shared row, is a non-fatal change.
func Diff(old, new Report, opt DiffOptions) []DiffFinding {
	if o, n := old.header().Scale, new.header().Scale; o != n {
		return []DiffFinding{structural("", fmt.Sprintf("scale mismatch: old %q vs new %q (not comparable)", o, n))}
	}
	type key struct{ bench, metric string }
	newList := new.gated()
	newVals := map[key]gated{}
	newRows, oldRows := map[string]bool{}, map[string]bool{}
	for _, v := range newList {
		newVals[key{v.bench, v.metric}] = v
		newRows[v.bench] = true
	}
	var out []DiffFinding
	rowNoted := map[string]bool{} // rows already reported as structural
	row := func(bench, note string) {
		if !rowNoted[bench] {
			rowNoted[bench] = true
			out = append(out, structural(bench, note))
		}
	}
	for _, o := range old.gated() {
		oldRows[o.bench] = true
		k := key{o.bench, o.metric}
		n, ok := newVals[k]
		delete(newVals, k)
		switch {
		case !newRows[o.bench]:
			row(o.bench, "row missing from new report")
		case !ok:
			out = append(out, structural(o.bench, o.metric+" missing from new report"))
		default:
			out = append(out, compare(o, n.v, opt))
		}
	}
	for _, n := range newList {
		if _, left := newVals[key{n.bench, n.metric}]; !left {
			continue
		}
		if !oldRows[n.bench] {
			row(n.bench, "row only in new report")
			continue
		}
		out = append(out, DiffFinding{Bench: n.bench, Metric: n.metric, New: n.v,
			Changed: true, Note: "only in new report"})
	}
	return out
}

// compare applies o's threshold to the new value nv.
func compare(o gated, nv float64, opt DiffOptions) DiffFinding {
	f := DiffFinding{Bench: o.bench, Metric: o.metric, Old: o.v, New: nv, Changed: o.v != nv}
	switch {
	case !f.Changed:
	case o.kind == count:
		if math.Abs(nv-o.v) > float64(opt.CountTol) {
			f.Regression = true
			f.Note = fmt.Sprintf("count drifted by %+.0f (tolerance %d)", nv-o.v, opt.CountTol)
		}
	case o.kind == flag:
		if o.v == 1 {
			f.Regression = true
			f.Note = "was true, now false"
		}
	case o.v == 0:
		if nv > float64(opt.CountTol) {
			f.Regression = true
			f.Note = fmt.Sprintf("was 0, now %.0f", nv)
		}
	case nv > o.v:
		pct := 100 * (nv - o.v) / o.v
		f.Note = fmt.Sprintf("%+.2f%%", pct)
		if pct > opt.CyclesTolPct {
			f.Regression = true
			f.Note = fmt.Sprintf("+%.2f%% (tolerance %.2f%%)", pct, opt.CyclesTolPct)
		}
	default:
		f.Note = fmt.Sprintf("%.2f%% improvement", 100*(o.v-nv)/o.v)
	}
	return f
}

// structural records a report-shape mismatch (always a regression).
func structural(bench, note string) DiffFinding {
	return DiffFinding{Bench: bench, Metric: "structure", Regression: true, Changed: true, Note: note}
}

// Regressions filters findings down to threshold violations.
func Regressions(findings []DiffFinding) []DiffFinding {
	var out []DiffFinding
	for _, f := range findings {
		if f.Regression {
			out = append(out, f)
		}
	}
	return out
}

// RenderDiff prints the comparison: every changed metric, then a verdict
// line. Unchanged metrics are summarized, not listed. Output order follows
// the old report, so it is deterministic.
func RenderDiff(w io.Writer, title string, findings []DiffFinding) {
	changed, regressed := 0, 0
	fmt.Fprintf(w, "%s: %d metrics compared\n", title, len(findings))
	for _, f := range findings {
		if !f.Changed {
			continue
		}
		changed++
		mark := "~"
		if f.Regression {
			mark = "!"
			regressed++
		}
		name := f.Metric
		if f.Bench != "" {
			name = f.Bench + "." + f.Metric
		}
		note := f.Note
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "  %s %-32s %v -> %v%s\n", mark, name, f.Old, f.New, note)
	}
	switch {
	case regressed > 0:
		fmt.Fprintf(w, "  REGRESSION: %d metric(s) beyond threshold (of %d changed)\n", regressed, changed)
	case changed > 0:
		fmt.Fprintf(w, "  ok: %d metric(s) changed within threshold\n", changed)
	default:
		fmt.Fprintf(w, "  ok: no metric changes\n")
	}
}

// LoadReport reads a BENCH_*.json file as the kind its header names.
func LoadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var h Header
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var rep Report
	switch h.Kind {
	case KindSearch:
		rep = &SearchReport{}
	case KindCommOpt:
		rep = &CommOptReport{}
	case KindNative:
		rep = &NativeReport{}
	default:
		return nil, fmt.Errorf("%s: report kind %q is not %s, %s or %s", path, h.Kind, KindSearch, KindCommOpt, KindNative)
	}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// writeReport writes a report as indented JSON.
func writeReport(rep Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// DiffReportFiles diffs two report files of the same kind, printing to w
// and returning the findings.
func DiffReportFiles(w io.Writer, oldPath, newPath string, opt DiffOptions) ([]DiffFinding, error) {
	old, err := LoadReport(oldPath)
	if err != nil {
		return nil, err
	}
	new, err := LoadReport(newPath)
	if err != nil {
		return nil, err
	}
	ok, nk := old.header().Kind, new.header().Kind
	if ok != nk {
		return nil, fmt.Errorf("report kinds differ: %s (%s) vs %s (%s)", oldPath, ok, newPath, nk)
	}
	f := Diff(old, new, opt)
	RenderDiff(w, fmt.Sprintf("%s report %s vs %s", ok, oldPath, newPath), f)
	return f, nil
}

// Compare re-runs each committed report (paths naming "" are skipped) at
// its own scale and settings and diffs the fresh numbers against it.
// Returns every finding; the caller gates on Regressions.
func Compare(cfg Config, paths []string, opt DiffOptions) ([]DiffFinding, error) {
	var all []DiffFinding
	for _, path := range paths {
		if path == "" {
			continue
		}
		committed, err := LoadReport(path)
		if err != nil {
			return nil, err
		}
		runCfg := cfg
		runCfg.Scale = parseScale(committed.header().Scale)
		fresh, err := committed.rerun(runCfg)
		if err != nil {
			return nil, err
		}
		f := Diff(committed, fresh, opt)
		RenderDiff(cfg.Out, committed.header().Kind+" vs committed "+path, f)
		all = append(all, f...)
	}
	return all, nil
}
