package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// memoSets are fixed DBpedia-like target sets, class members by index, with
// the sequential cache counters and visits they read when the runs still
// shared a per-miner LRU cache that never evicted within a run. Four rows
// read fewer lookups since the solvable-root sweep became a plain chain
// that computes no binding set left of the last solvable root: Person
// {3, 7, 20} and Settlement {1, 2} one hit fewer, Film {0, 1} and
// University {0} four and two misses fewer.
var memoSets = []struct {
	class                 string
	members               []int
	hits, misses, visited uint64
}{
	{"Person", []int{0}, 52, 43, 68},
	{"Person", []int{3, 7}, 463, 43, 309},
	{"Person", []int{3, 7, 20}, 0, 8, 0},
	{"Settlement", []int{0}, 2, 10, 10},
	{"Settlement", []int{1, 2}, 0, 32, 0},
	{"Film", []int{10}, 18, 12, 20},
	{"Film", []int{0, 1}, 14, 29, 23},
	{"Film", []int{2}, 38, 22, 40},
	{"Album", []int{0}, 12, 11, 16},
	{"Organization", []int{1}, 6, 9, 11},
	{"University", []int{0}, 14, 18, 19},
	{"Region", []int{0, 1}, 3, 6, 7},
}

// TestMemoPerRun pins the run's memo of its queue's binding sets. A
// sequential run reads the hits, misses and visits memoSets pins. With 4 workers each queue element is computed at most once, so
// misses never exceed the candidates, and the answers cost what the
// sequential ones do. A memo returned to the pool holds no set and no KB.
// Run with -race -cpu 1,4,8: the workers share the memo.
func TestMemoPerRun(t *testing.T) {
	k, est, d := dbpediaEnv(t)
	for _, c := range memoSets {
		var set []kb.EntID
		for _, i := range c.members {
			id, ok := k.EntityID(rdf.NewIRI(d.Members[c.class][i]))
			if !ok {
				t.Fatalf("%s %d missing from the KB", c.class, i)
			}
			set = append(set, id)
		}
		cfg := DefaultConfig()
		seq, err := NewMiner(k, est, cfg).Mine(set)
		if err != nil {
			t.Fatal(err)
		}
		if st := seq.Stats; st.CacheHits != c.hits || st.CacheMisses != c.misses || st.Visited != c.visited {
			t.Errorf("%s %v: %d hits, %d misses, %d visits; want %d, %d, %d",
				c.class, c.members, st.CacheHits, st.CacheMisses, st.Visited, c.hits, c.misses, c.visited)
		}
		cfg.Workers = 4
		par, err := NewMiner(k, est, cfg).Mine(set)
		if err != nil {
			t.Fatal(err)
		}
		if par.Stats.CacheMisses > uint64(par.Stats.Candidates) {
			t.Errorf("%s %v, 4 workers: %d misses for %d candidates", c.class, c.members, par.Stats.CacheMisses, par.Stats.Candidates)
		}
		if err := sameCosts(par, seq); err != nil {
			t.Errorf("%s %v, 4 workers: %v", c.class, c.members, err)
		}
	}

	// A run's own buffers, so the test sees the ones it put back.
	m := NewMiner(k, est, DefaultConfig())
	qb := &queueBufs{}
	tgt := normalizeTargets([]kb.EntID{k.MustEntityID(d.Members["Person"][0])})
	queue, _ := m.buildQueue(context.Background(), tgt, qb)
	res := &Result{}
	m.search(context.Background(), qb.newMemo(m.K, queue), tgt, res)
	if res.Stats.CacheMisses == 0 {
		t.Fatal("the run computed no binding set")
	}
	putQueueBufs(qb)
	if qb.memo.k != nil || qb.memo.queue != nil {
		t.Fatal("a pooled memo keeps its KB or its queue")
	}
	slots := qb.memo.slots[:cap(qb.memo.slots)]
	for i := range slots {
		if !reflect.ValueOf(&slots[i]).Elem().IsZero() {
			t.Fatalf("pooled memo slot %d of %d is not empty", i, cap(qb.memo.slots))
		}
	}
}
