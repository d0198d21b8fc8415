package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is how every metric is printed: sample count, median, and the
// highest percentile that still has at least ten samples beyond it (the
// maximum when there are too few samples for any).
type summary struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Tail   float64 `json:"tail"`
	// TailAt names the tail: "p90", "p99", ... or "max".
	TailAt string `json:"tail_at"`
}

var tailPercentiles = []int{99, 95, 90, 75}

func summarize(name, unit string, samples []float64) summary {
	s := summary{Name: name, Unit: unit, N: len(samples), TailAt: "max"}
	if len(samples) == 0 {
		return s
	}
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	s.Median = quantile(v, 0.5)
	s.Tail = v[len(v)-1]
	for _, p := range tailPercentiles {
		if float64(len(v))*float64(100-p)/100 >= 10 {
			s.Tail, s.TailAt = quantile(v, float64(p)/100), fmt.Sprintf("p%d", p)
			break
		}
	}
	return s
}

// quantile interpolates linearly in sorted v.
func quantile(v []float64, q float64) float64 {
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	f := pos - float64(lo)
	return v[lo]*(1-f) + v[lo+1]*f
}

func median(samples []float64) float64 { return summarize("", "", samples).Median }

func (s summary) String() string {
	return fmt.Sprintf("%-30s %-9s n=%-5d median=%-14.6g %s=%.6g", s.Name, s.Unit, s.N, s.Median, s.TailAt, s.Tail)
}
