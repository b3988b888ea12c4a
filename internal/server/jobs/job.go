package jobs

import (
	"context"
	"time"
)

// Job is one unit of mining work tracked by a Registry. Its mutable state
// is guarded by the registry lock; accessors take it, so they are safe
// from any goroutine.
type Job struct {
	id   string
	key  string
	kind string
	meta any

	r   *Registry
	run RunFunc

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed at finalize

	deadline time.Duration // watchdog bound on run time; 0 = unbounded

	// Guarded by r.mu.
	state    State
	retain   bool
	external bool
	wdKilled bool // watchdog failed this job and freed its worker slot
	refs     int
	result   any
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	expires  time.Time

	events   []Event
	firstSeq int           // sequence number of events[0] (log may be trimmed)
	wake     chan struct{} // closed and replaced on every append/state change
}

// Event is one entry of a job's append-only event log: callers Emit
// progress or entry payloads, streaming subscribers replay and follow the
// log. Seq numbers are contiguous per job, starting at 0.
type Event struct {
	Seq  int
	Type string
	Data any
}

// EventTruncated is the type of the synthetic marker event EventsSince
// prepends when the requested cursor points below the trimmed log: its
// Data is the int count of events the reader can no longer see. It is
// never stored in the log and consumes no sequence number.
const EventTruncated = "truncated"

// ID is the job's registry-unique identifier.
func (j *Job) ID() string { return j.id }

// Key is the flight key the job was submitted under ("" when unkeyed).
func (j *Job) Key() string { return j.key }

// Kind is the caller-supplied job label.
func (j *Job) Kind() string { return j.kind }

// Meta is the caller-supplied opaque data (immutable by contract).
func (j *Job) Meta() any { return j.meta }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Context is the job's run context; it ends at abandonment, cancellation
// or finalization. External owners doing work outside the pool should
// watch it.
func (j *Job) Context() context.Context { return j.ctx }

// State returns the job's lifecycle position.
func (j *Job) State() State {
	j.r.mu.Lock()
	defer j.r.mu.Unlock()
	return j.state
}

// Result returns the job's outcome; ok is false while it is still queued
// or running. A cancelled job reports ErrCancelled.
func (j *Job) Result() (v any, err error, ok bool) {
	j.r.mu.Lock()
	defer j.r.mu.Unlock()
	if !j.state.Finished() {
		return nil, nil, false
	}
	return j.result, j.err, true
}

// Times reports the lifecycle timestamps; zero values for phases not
// reached yet.
func (j *Job) Times() (created, started, finished time.Time) {
	j.r.mu.Lock()
	defer j.r.mu.Unlock()
	return j.created, j.started, j.finished
}

// Refs reports the current reference count (tests assert join/abandon
// accounting through it).
func (j *Job) Refs() int {
	j.r.mu.Lock()
	defer j.r.mu.Unlock()
	return j.refs
}

// Complete finalizes an externally-executed job with its outcome (err nil
// → StateDone, else StateFailed). It is a no-op on an already-finished job
// — owners may complete jobs that were cancelled or abandoned in the
// meantime without checking first.
func (j *Job) Complete(v any, err error) {
	j.r.mu.Lock()
	j.completeLocked(v, err)
	j.r.mu.Unlock()
}

func (j *Job) completeLocked(v any, err error) {
	if err != nil {
		j.r.finalizeLocked(j, StateFailed, nil, err)
		return
	}
	j.r.finalizeLocked(j, StateDone, v, nil)
}

// Emit appends an event to the job's log and wakes subscribers. Events on
// a finished job are dropped (the log is complete once the job is). When
// the log exceeds the registry's EventBuffer, the oldest events are
// trimmed; sequence numbers keep counting, so followers detect the gap.
func (j *Job) Emit(eventType string, data any) {
	j.r.mu.Lock()
	defer j.r.mu.Unlock()
	if j.state.Finished() {
		return
	}
	j.events = append(j.events, Event{Seq: j.firstSeq + len(j.events), Type: eventType, Data: data})
	if excess := len(j.events) - j.r.opts.EventBuffer; excess > 0 {
		j.events = j.events[excess:]
		j.firstSeq += excess
	}
	j.notifyLocked()
}

// EventsSince returns the buffered events with sequence >= seq, the cursor
// for the next call, whether the job is finished, and a channel closed on
// the next change (new event or state transition). The idiom for a
// follower is: drain, write, and if !finished block on wake (or the
// client's ctx), then call again.
//
// When seq points below the trimmed log — a slow or late reader that the
// EventBuffer cap has lapped — the gap is made explicit: the returned
// slice starts with a synthetic EventTruncated marker whose Data is the
// number of dropped events, then resumes at the oldest retained event.
func (j *Job) EventsSince(seq int) (evs []Event, next int, finished bool, wake <-chan struct{}) {
	j.r.mu.Lock()
	defer j.r.mu.Unlock()
	if seq < 0 {
		seq = 0
	}
	if seq < j.firstSeq {
		evs = append(evs, Event{Seq: seq, Type: EventTruncated, Data: j.firstSeq - seq})
		seq = j.firstSeq
	}
	if i := seq - j.firstSeq; i < len(j.events) {
		evs = append(evs, j.events[i:]...)
	}
	return evs, j.firstSeq + len(j.events), j.state.Finished(), j.wake
}

// notifyLocked wakes every subscriber blocked on the job's wake channel.
func (j *Job) notifyLocked() {
	close(j.wake)
	j.wake = make(chan struct{})
}
