package core

import (
	"sync"

	"github.com/remi-kb/remi/internal/bindset"
	"github.com/remi-kb/remi/internal/expr"
	"github.com/remi-kb/remi/internal/kb"
)

// memo is one run's sorted queue with the binding sets of its elements, one
// slot per queue index, each computed on first use (Section 3.5.2 caches
// query results; within one run every lookup is of a queue element, and the
// queue holds each subgraph expression once). The slot's Once lets P-REMI's
// workers share one computation of a set they miss on together.
type memo struct {
	k     *kb.KB
	queue []scored
	slots []memoSlot
}

type memoSlot struct {
	once sync.Once
	set  bindset.Set
}

// newMemo returns queue's memo on qb's pooled slots, every slot empty.
func (qb *queueBufs) newMemo(k *kb.KB, queue []scored) *memo {
	if cap(qb.memo.slots) < len(queue) {
		qb.memo.slots = make([]memoSlot, len(queue))
	}
	qb.memo = memo{k: k, queue: queue, slots: qb.memo.slots[:len(queue)]}
	return &qb.memo
}

// bindings returns the binding set of queue[i], shared and immutable, and
// counts the lookup into st: a miss when this call computed the set, a hit
// otherwise.
func (mm *memo) bindings(i int32, st *Stats) bindset.Set {
	s := &mm.slots[i]
	computed := false
	s.once.Do(func() {
		s.set = expr.BindingSet(mm.k, mm.queue[i].g)
		computed = true
	})
	if computed {
		st.CacheMisses++
	} else {
		st.CacheHits++
	}
	return s.set
}

// release empties every slot and drops the KB, so a pooled memo pins none
// of a KB's arrays. Every slot below the capacity is empty afterwards: the
// slots a run uses are below its length.
func (mm *memo) release() {
	clear(mm.slots)
	*mm = memo{slots: mm.slots[:0]}
}
