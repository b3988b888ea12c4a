package remi

// BenchmarkQueueBuildExtended isolates phase 1 of Algorithm 1 (candidate
// enumeration, common-ness filtering, Ĉ scoring and the cost sort) over the
// Table 4 extended workload — the phase the CSR index relayout targets.
// RankedCandidates is exactly buildQueue plus two result copies, so this
// times what benchmark/ reports as core.queue_build_share, without the DFS.

import (
	"testing"

	"github.com/remi-kb/remi/internal/core"
	"github.com/remi-kb/remi/internal/experiments"
)

func BenchmarkQueueBuildExtended(b *testing.B) {
	env := lab().DBpedia()
	sets := experiments.SampleSets(env, 8, 404, 0)
	m := core.NewMiner(env.KB, env.EstFr, core.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[i%len(sets)]
		gs, _ := m.RankedCandidates(set.IDs)
		_ = gs
	}
}
