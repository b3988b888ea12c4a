package jobs

import (
	"fmt"
	"log"
	"runtime/debug"
	"time"
)

// The goroutines a Registry owns: the pool workers that execute submitted
// jobs, and the janitor that expires finished jobs and runs the watchdog.

// worker executes queued jobs until Close. When the watchdog kills a job,
// it hands this worker's pool slot (and its WaitGroup slot) to a freshly
// spawned replacement; the stuck goroutine then retires silently if its
// RunFunc ever returns, so the Done accounting stays balanced whether or
// not the wedged code recovers.
func (r *Registry) worker() {
	handedOff := false
	defer func() {
		if !handedOff {
			r.wg.Done()
		}
	}()
	for {
		select {
		case <-r.stop:
			return
		case j := <-r.queue:
			if r.runJob(j) {
				handedOff = true
				return
			}
		}
	}
}

// runJob executes one dequeued job; it reports true when the watchdog
// killed the job mid-run, meaning this worker's slot was already handed to
// a replacement and the goroutine must retire without touching counters.
func (r *Registry) runJob(j *Job) (handedOff bool) {
	r.mu.Lock()
	if j.state.Finished() { // cancelled while queued
		r.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	r.running++
	j.notifyLocked()
	r.mu.Unlock()

	res, err := runSafely(j)

	r.mu.Lock()
	defer r.mu.Unlock()
	if j.wdKilled {
		// The watchdog already failed this job, decremented running and
		// started a replacement worker; the late result is discarded.
		return true
	}
	r.running--
	dur := time.Since(j.started)
	// EWMA of run time, feeding the Retry-After hint.
	if r.avgRunNS == 0 {
		r.avgRunNS = float64(dur)
	} else {
		r.avgRunNS = 0.8*r.avgRunNS + 0.2*float64(dur)
	}
	j.completeLocked(res, err)
	return false
}

// runSafely converts a RunFunc panic into a job failure: pool workers run
// outside net/http's per-connection recovery, so an unrecovered panic
// would kill the whole server. The stack is logged server-side.
func runSafely(j *Job) (res any, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("jobs: %s run panicked: %v\n%s", j.id, p, debug.Stack())
			res, err = nil, fmt.Errorf("%w: %v", ErrPanicked, p)
		}
	}()
	return j.run(j.ctx, j)
}

// janitor drops finished jobs past their TTL and runs the watchdog scan.
func (r *Registry) janitor() {
	defer r.wg.Done()
	interval := r.opts.TTL / 2
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	// The watchdog needs ticks fine enough to notice a blown deadline soon
	// after grace expires, independent of how lazily the TTL sweep may run.
	if g := r.opts.WatchdogGrace; g > 0 {
		wd := g / 2
		if wd < 10*time.Millisecond {
			wd = 10 * time.Millisecond
		}
		if wd > time.Second {
			wd = time.Second
		}
		if wd < interval {
			interval = wd
		}
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-tick.C:
			r.mu.Lock()
			r.sweepLocked(now)
			r.watchdogLocked(now)
			r.mu.Unlock()
		}
	}
}

func (r *Registry) sweepLocked(now time.Time) {
	for id, j := range r.byID {
		if j.state.Finished() && now.After(j.expires) {
			delete(r.byID, id)
			r.expired++
		}
	}
}

// watchdogLocked fails every running job whose deadline plus grace has
// passed. For a pool-executed job the kill also frees the worker slot: the
// job's context is cancelled (finalize does that), running is decremented,
// and a replacement worker goroutine is spawned to take over the slot —
// without a wg.Add, because the stuck goroutine observes wdKilled when its
// RunFunc returns and retires without wg.Done (see worker). A RunFunc that
// ignores its context forever leaks one goroutine but no longer blocks the
// pool or Close.
func (r *Registry) watchdogLocked(now time.Time) {
	for _, j := range r.byID {
		if j.state != StateRunning || j.deadline <= 0 {
			continue
		}
		if now.Before(j.started.Add(j.deadline + r.opts.WatchdogGrace)) {
			continue
		}
		r.watchdogKilled++
		err := fmt.Errorf("%w: ran past %v deadline (+%v grace)",
			ErrWatchdogKilled, j.deadline, r.opts.WatchdogGrace)
		if !j.external {
			j.wdKilled = true
			r.running--
			go r.worker()
		}
		r.finalizeLocked(j, StateFailed, nil, err)
		log.Printf("jobs: watchdog killed %s (%s): %v", j.id, j.kind, err)
	}
}
