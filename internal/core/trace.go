package core

import "github.com/remi-kb/remi/internal/expr"

// EventKind classifies search-trace events (used by the Figure 1
// walk-through example and the algorithm tests).
type EventKind int

const (
	// EventVisit fires when a node of the search tree is tested.
	EventVisit EventKind = iota
	// EventRE fires when the tested expression is a referring expression.
	EventRE
	// EventNewBest fires when the incumbent solution improves.
	EventNewBest
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventVisit:
		return "visit"
	case EventRE:
		return "re"
	case EventNewBest:
		return "new-best"
	default:
		return "event"
	}
}

// Event is one step of the search.
type Event struct {
	Kind       EventKind
	Expression expr.Expression
	Cost       float64
}

// TraceFunc receives search events; it must not retain the expression
// beyond the call unless it copies it (Miner already passes clones).
type TraceFunc func(Event)

// EventMask selects which event kinds a TraceFunc receives. The zero mask
// delivers everything (the historical behavior); build narrower masks with
// MaskOf. Masked-out events are suppressed before the per-event expression
// Clone, so a progress-only subscriber (say, EventNewBest for a streaming
// client) costs no per-node allocations on the search hot path.
type EventMask uint32

// MaskOf builds the mask delivering exactly the given kinds.
func MaskOf(kinds ...EventKind) EventMask {
	var m EventMask
	for _, k := range kinds {
		m |= 1 << uint(k)
	}
	return m
}

// Wants reports whether the mask delivers events of kind k (the zero mask
// delivers all kinds).
func (m EventMask) Wants(k EventKind) bool {
	return m == 0 || m&(1<<uint(k)) != 0
}
