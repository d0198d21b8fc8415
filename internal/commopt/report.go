package commopt

import (
	"fmt"
	"strings"
)

// String renders the plan as the before/after capacity and occupancy table
// phloemc/phloemsim print. Output is deterministic: queues in id order.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "commopt plan for %s (default depth %d)\n", p.Pipeline, p.Default)
	fmt.Fprintf(&sb, "  %-3s %-14s %-8s %7s %6s %6s %6s %7s %7s  %s\n",
		"q", "name", "class", "burst", "floor", "before", "after", "maxocc", "estocc", "note")
	for _, q := range p.Queues {
		note := "kept"
		switch {
		case q.UserSet:
			note = "user-set"
		case q.Assigned:
			note = "assigned"
		}
		floor := q.GroupFloor
		if q.SiteFloor > floor {
			floor = q.SiteFloor
		}
		fmt.Fprintf(&sb, "  q%-2d %-14s %-8s %7.1f %6d %6d %6d %7d %7.1f  %s\n",
			q.ID, q.Name, q.Class, q.Burst, floor, q.Before, q.After, q.MaxOcc, q.EstOcc, note)
	}
	return sb.String()
}

// Summary is a one-line digest for logs: how many queues were assigned.
func (p *Plan) Summary() string {
	assigned := 0
	for _, q := range p.Queues {
		if q.Assigned {
			assigned++
		}
	}
	return fmt.Sprintf("commopt: %d/%d queue capacities assigned", assigned, len(p.Queues))
}
