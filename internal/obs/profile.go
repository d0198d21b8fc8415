package obs

import (
	"fmt"
	"sort"
	"strings"

	"phloem/internal/sim"
)

// LineStat aggregates attributed cycles for one kernel source line across
// every stage-program PC that was lowered from it.
type LineStat struct {
	// Line is the 1-based kernel source line; 0 collects compiler-generated
	// glue (queue traffic, dispatch control flow, prologue constants).
	Line int `json:"line"`
	// Issue counts cycles where a micro-op from this line led the core's
	// issue group; Backend/Queue/Other count stall cycles whose oldest
	// blocked micro-op came from this line.
	Issue   uint64 `json:"issue"`
	Backend uint64 `json:"backend"`
	Queue   uint64 `json:"queue"`
	Other   uint64 `json:"other"`
	// Uops counts micro-ops issued from this line.
	Uops uint64 `json:"uops"`
	// Stages names the stage programs that contributed (sorted, deduped).
	Stages []string `json:"stages"`
}

// Stalls returns the summed stall cycles (everything but issue).
func (l *LineStat) Stalls() uint64 { return l.Backend + l.Queue + l.Other }

// Label names the line in reports: "line N", or "generated" for line 0.
func (l *LineStat) Label() string {
	if l.Line == 0 {
		return "generated"
	}
	return fmt.Sprintf("line %d", l.Line)
}

// Profile is the source-attributed cycle profile of one run.
type Profile struct {
	// Lines is sorted by stall cycles, descending (line number breaks ties).
	Lines []LineStat `json:"lines"`
	// Unattributed holds observed core cycles for which no blocked or
	// issuing micro-op was identifiable (e.g. empty instruction windows).
	Unattributed sim.Breakdown `json:"unattributed"`
	// Total sums every attributed and unattributed cycle. It reconciles
	// exactly with Stats.TotalBreakdown() of the same run.
	Total sim.Breakdown `json:"total"`
}

// Profile aggregates the per-PC attribution into per-source-line statistics.
func (c *SimCollector) Profile() *Profile {
	p := &Profile{}
	byLine := map[int]*LineStat{}
	stageSets := map[int]map[string]bool{}
	for k, s := range c.sites {
		p.Total.Add(s.cycles)
		if k.thread < 0 {
			p.Unattributed.Add(s.cycles)
			continue
		}
		st := c.stages[k.thread]
		line := 0
		if k.pc >= 0 && k.pc < len(st.lines) {
			line = int(st.lines[k.pc])
		}
		ls := byLine[line]
		if ls == nil {
			ls = &LineStat{Line: line}
			byLine[line] = ls
			stageSets[line] = map[string]bool{}
		}
		ls.Issue += s.cycles.Issue
		ls.Backend += s.cycles.Backend
		ls.Queue += s.cycles.Queue
		ls.Other += s.cycles.Other
		ls.Uops += s.uops
		stageSets[line][st.name] = true
	}
	for line, ls := range byLine {
		for name := range stageSets[line] {
			ls.Stages = append(ls.Stages, name)
		}
		sort.Strings(ls.Stages)
		p.Lines = append(p.Lines, *ls)
	}
	sort.Slice(p.Lines, func(i, j int) bool {
		si, sj := p.Lines[i].Stalls(), p.Lines[j].Stalls()
		if si != sj {
			return si > sj
		}
		return p.Lines[i].Line < p.Lines[j].Line
	})
	return p
}

// Render writes the top-k hot-lines report. When source is non-empty it is
// the kernel source text; each reported line is then annotated with its
// source text. Lines with zero stall cycles are omitted from the top-k list
// (their issue cycles still show in the totals).
func (p *Profile) Render(k int, source string) string {
	var srcLines []string
	if source != "" {
		srcLines = strings.Split(source, "\n")
	}
	var sb strings.Builder
	tot := p.Total.Total()
	stallTot := p.Total.Backend + p.Total.Queue + p.Total.Other
	fmt.Fprintf(&sb, "hot lines: %d core-cycles observed (%d issue, %d stall)\n",
		tot, p.Total.Issue, stallTot)
	pct := func(v uint64) float64 {
		if tot == 0 {
			return 0
		}
		return 100 * float64(v) / float64(tot)
	}
	shown := 0
	for _, l := range p.Lines {
		if shown >= k || l.Stalls() == 0 {
			break
		}
		shown++
		fmt.Fprintf(&sb, "%2d. %-10s %10d stall (%5.1f%%)  queue=%d backend=%d other=%d  issue=%d uops=%d  [%s]\n",
			shown, l.Label(), l.Stalls(), pct(l.Stalls()),
			l.Queue, l.Backend, l.Other, l.Issue, l.Uops,
			strings.Join(l.Stages, ", "))
		if l.Line > 0 && l.Line <= len(srcLines) {
			fmt.Fprintf(&sb, "    | %s\n", strings.TrimRight(srcLines[l.Line-1], " \t"))
		}
	}
	if shown == 0 {
		sb.WriteString("(no stall cycles attributed)\n")
	}
	if u := p.Unattributed.Total(); u > 0 {
		fmt.Fprintf(&sb, "unattributed: %d cycles (issue=%d backend=%d queue=%d other=%d)\n",
			u, p.Unattributed.Issue, p.Unattributed.Backend,
			p.Unattributed.Queue, p.Unattributed.Other)
	}
	return sb.String()
}
