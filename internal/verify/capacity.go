package verify

// W1 — the queue capacity rule. The cost model in internal/costmodel
// estimates, for every queue, the largest token burst a producer emits
// before its consumer is guaranteed a chance to drain, and recommends a
// capacity (clamped to the architectural QueueDepth). A queue whose author
// Depth override sits below that recommendation serializes its producer
// against its consumer on every burst — legal, but it forfeits the latency
// hiding the queue exists to provide, so it is reported as a warning.
// Queues at the machine default (Depth 0) are never flagged: the default
// capacity is the clamp, so it always satisfies the recommendation.

import (
	"phloem/internal/arch"
	"phloem/internal/costmodel"
)

// checkCapacity runs the static throughput model over the pipeline (reusing
// the stage programs flattened by build) to flag undersized queues.
//
//	W1: an author's Depth override is below the recommended capacity.
func (m *model) checkCapacity() {
	rep := costmodel.AnalyzeFlat(m.pl, arch.DefaultConfig(1), m.progs)
	for _, q := range rep.Queues {
		if q.Depth > 0 && q.Depth < q.Recommended {
			m.diag("W1", SevWarning, "", q.ID, -1,
				"queue capacity %d below statically recommended %d (burst %.0f tokens, %.1f data tokens/unit)",
				q.Depth, q.Recommended, q.Burst, q.Data)
		}
	}
}
