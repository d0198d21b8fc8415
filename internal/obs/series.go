package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"phloem/internal/sim"
)

// QueueSample summarizes one queue's occupancy over one sample window.
type QueueSample struct {
	// Min/Max bound the occupancy observed in the window; Avg is the
	// time-weighted mean; Len is the occupancy at the window's close.
	Min int     `json:"min"`
	Max int     `json:"max"`
	Avg float64 `json:"avg"`
	Len int     `json:"len"`
}

// SampleRow is one interval of the time-series: the cycle it closed at, the
// Stats counters accumulated since the previous row, and instantaneous
// queue/RA state.
type SampleRow struct {
	Cycle uint64 `json:"cycle"`
	// Delta holds per-interval counter increments (cycles, issued uops,
	// per-core breakdown, cache events, queue stalls, RA loads).
	Delta      sim.Stats     `json:"delta"`
	Queues     []QueueSample `json:"queues"`
	RAInflight []int         `json:"raInflight"`
}

// Series is the exported interval time-series of one run.
type Series struct {
	Stages []string    `json:"stages"`
	Queues []string    `json:"queues"`
	RAs    []string    `json:"ras"`
	Rows   []SampleRow `json:"rows"`
}

// Series exports the collected time-series. The last row covers the final
// partial window, closed at the run's end cycle.
func (c *SimCollector) Series() *Series {
	s := &Series{Rows: c.rows}
	for _, st := range c.stages {
		s.Stages = append(s.Stages, st.name)
	}
	s.Queues = append(s.Queues, c.queues...)
	for _, ra := range c.ras {
		s.RAs = append(s.RAs, ra.name)
	}
	return s
}

// WriteJSON writes the series as one indented JSON document.
func (s *Series) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV writes one row per sample window: cycle, interval-wide counters,
// then min/avg/max per queue and in-flight count per RA. Columns are fixed
// by the machine shape, so rows align across a run.
func (s *Series) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w) // keeps the first write error; Flush returns it
	fmt.Fprint(bw, "cycle,dcycles,dissued,dissue,dbackend,dqueue,dother,dl1miss,dmemacc,dempty,dfull,draloads")
	for _, q := range s.Queues {
		fmt.Fprintf(bw, ",q:%s:min,q:%s:avg,q:%s:max", q, q, q)
	}
	for _, ra := range s.RAs {
		fmt.Fprintf(bw, ",ra:%s:inflight", ra)
	}
	fmt.Fprintln(bw)
	for _, r := range s.Rows {
		tb := r.Delta.TotalBreakdown()
		fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
			r.Cycle, r.Delta.Cycles, r.Delta.Issued,
			tb.Issue, tb.Backend, tb.Queue, tb.Other,
			r.Delta.Cache.L1Misses, r.Delta.Cache.MemAccesses,
			r.Delta.QueueEmptyStalls, r.Delta.QueueFullStalls, r.Delta.RALoads)
		for _, q := range r.Queues {
			fmt.Fprintf(bw, ",%d,%.2f,%d", q.Min, q.Avg, q.Max)
		}
		for _, n := range r.RAInflight {
			fmt.Fprintf(bw, ",%d", n)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
