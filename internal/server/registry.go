package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/faults"
)

// This file is the registry plane: knowledge bases registered by name and
// resolved per request, generation-tagged swaps, last-known-good reloads
// with quarantine, and the drain that precedes shutdown.

// kbNameRE validates registry names: they appear in URL paths and cache
// keys, so they stay short and URL-safe.
var kbNameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// ValidateKBName reports whether name is usable as a registry name.
// Commands should call it on user-supplied names before constructing a
// server, so a bad flag is an error message rather than a panic.
func ValidateKBName(name string) error {
	if !kbNameRE.MatchString(name) {
		return fmt.Errorf("invalid KB name %q (want [A-Za-z0-9._-]{1,64})", name)
	}
	return nil
}

// kbEntry is one registered knowledge base: its live System plus the
// generation tag that scopes cache invalidation to this KB.
type kbEntry struct {
	name string
	cur  atomic.Pointer[held]
	// generation counts swaps of this KB; it prefixes every cache and
	// flight key derived from it, so a reload makes the old entries — and
	// only this KB's — unreachable.
	generation atomic.Int64
	// requests counts requests routed to this KB (all endpoints).
	requests atomic.Int64

	// Last-known-good reload state. A failed reload leaves cur and
	// generation untouched — the old System keeps serving byte-identical
	// results — and quarantines the source with exponential backoff.
	reloadMu        sync.Mutex   // serializes reloads of this KB
	failStreak      int          // consecutive failed reloads (guarded by reloadMu)
	reloadFailures  atomic.Int64 // total failed reloads since start
	lastGoodGen     atomic.Int64 // generation of the last successful load
	quarantineUntil atomic.Int64 // unix nanos; 0 = not quarantined

	// Live (mutable) KB state: nil for snapshot/file-backed entries. When
	// set, the admin mutation plane (facts, compile) operates on this KB.
	live              *remi.LiveKB
	compacting        atomic.Bool  // one compile at a time per KB
	lastCompactionGen atomic.Int64 // generation the last compile wrote
}

// held is a registered System and its references: the registry's while
// it serves, plus one per reader; refs counts those beyond the registry's.
// A swap drops the registry's, and the last release (refs -1) closes the
// System, so a replaced generation is unmapped once nothing reads it.
type held struct {
	sys  *remi.System
	refs atomic.Int64
}

// sys returns the serving System unreferenced: for its heap counters only.
func (e *kbEntry) sys() *remi.System { return e.cur.Load().sys }

// acquire returns the serving System with a reference held until release.
// A closed System (refs -1) was swapped out, so acquire retries.
func (e *kbEntry) acquire() *held {
	for {
		h := e.cur.Load()
		for n := h.refs.Load(); n >= 0; n = h.refs.Load() {
			if h.refs.CompareAndSwap(n, n+1) {
				return h
			}
		}
	}
}

func (h *held) release() {
	if h.refs.Add(-1) < 0 {
		_ = h.sys.Close()
	}
}

// AddKB registers an additional knowledge base under name. Register every
// KB before the handler starts serving traffic; names must be URL-safe
// ([A-Za-z0-9._-], at most 64 bytes) and unique. The registry owns sys.
func (s *Server) AddKB(name string, sys *remi.System) error {
	if err := ValidateKBName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.kbs[name]; ok {
		return fmt.Errorf("KB %q already registered", name)
	}
	e := &kbEntry{name: name}
	e.cur.Store(&held{sys: sys})
	s.kbs[name] = e
	return nil
}

// lookupKB returns the registry entry for name ("" = the default KB).
func (s *Server) lookupKB(name string) (*kbEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		name = s.defaultName
	}
	e := s.kbs[name]
	if e == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownKB, name)
	}
	return e, nil
}

// kbFromRequest resolves the KB a request routes to: the /v1/kb/{kb}/ path
// segment, the request's kb field, the ?kb= query parameter, or the
// default KB, in that order. Any two sources that disagree are rejected
// rather than silently overridden — a client never gets answers from a KB
// other than the one it named.
func (s *Server) kbFromRequest(r *http.Request, bodyKB string) (*kbEntry, error) {
	name := ""
	for _, src := range []struct{ where, name string }{
		{"path", r.PathValue("kb")},
		{"body", bodyKB},
		{"query parameter", r.URL.Query().Get("kb")},
	} {
		switch {
		case src.name == "":
		case name == "":
			name = src.name
		case src.name != name:
			return nil, fmt.Errorf("%w: the %s names %q but the request routes to %q",
				errKBConflict, src.where, src.name, name)
		}
	}
	e, err := s.lookupKB(name)
	if err != nil {
		return nil, err
	}
	e.requests.Add(1)
	return e, nil
}

// sys returns the default KB's System (kept for embedders and tests of the
// single-KB configuration).
func (s *Server) sys() *remi.System {
	e, err := s.lookupKB("")
	if err != nil {
		return nil
	}
	return e.sys()
}

// SwapKB replaces one registered knowledge base (a KB reload) and
// invalidates every cached result and in-flight dedup key scoped to it: the
// KB's generation tag changes, so runs and entries of the old System can no
// longer be reached, even by requests racing with the swap. Other KBs keep
// their cache entries. The old System is closed once no run reads it.
func (s *Server) SwapKB(name string, sys *remi.System) error {
	e, err := s.lookupKB(name)
	if err != nil {
		return err
	}
	e.reloadMu.Lock()
	e.swapIn(sys)
	e.reloadMu.Unlock()
	return nil
}

// swapIn installs sys as the entry's live System: a successful load, so the
// generation advances, becomes the last known good one, and any reload
// quarantine is lifted. The replaced System loses the registry's
// reference (the serving one swapped in again keeps it). Callers hold
// e.reloadMu.
func (e *kbEntry) swapIn(sys *remi.System) {
	if old := e.cur.Load(); old.sys != sys {
		e.cur.Store(&held{sys: sys})
		old.release()
	}
	e.lastGoodGen.Store(e.generation.Add(1))
	e.failStreak = 0
	e.quarantineUntil.Store(0)
}

// ReloadKB replaces one registered knowledge base from a loader with
// last-known-good semantics: the loader runs first, and only a System it
// delivers without error is swapped in (SwapKB rules: the generation
// advances, the old cache entries become unreachable). A loader failure
// changes nothing visible — the old generation keeps serving the exact
// results it always did — and quarantines the source: further reload
// attempts are refused with errReloadQuarantined until an exponential
// backoff (ReloadBackoff, doubling per consecutive failure, capped at
// ReloadBackoffMax) has passed. Failures are counted per KB and surfaced
// as reload_failures / last_good_generation under /v1/stats.
func (s *Server) ReloadKB(name string, load func() (*remi.System, error)) error {
	e, err := s.lookupKB(name)
	if err != nil {
		return err
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	if until := e.quarantineUntil.Load(); until != 0 {
		if rem := time.Until(time.Unix(0, until)); rem > 0 {
			return fmt.Errorf("%w: KB %q retries in %s (%d consecutive failure(s))",
				errReloadQuarantined, name, rem.Round(time.Millisecond), e.failStreak)
		}
	}
	sys, err := s.loadGuarded(load)
	if errors.Is(err, ErrKBUnchanged) {
		// The source is fine and identical to what serves: no swap, no
		// generation bump (caches stay warm), and the streak resets.
		e.failStreak = 0
		e.quarantineUntil.Store(0)
		return nil
	}
	if err != nil {
		e.reloadFailures.Add(1)
		e.failStreak++
		backoff := s.opts.ReloadBackoff << (e.failStreak - 1)
		if backoff <= 0 || backoff > s.opts.ReloadBackoffMax {
			backoff = s.opts.ReloadBackoffMax
		}
		e.quarantineUntil.Store(time.Now().Add(backoff).UnixNano())
		return fmt.Errorf("reload of KB %q failed (still serving generation %d, retry in %s): %w",
			name, e.generation.Load(), backoff, err)
	}
	e.swapIn(sys)
	return nil
}

// loadGuarded runs a KB loader through the reload failure points: a slow
// source delays, an open failure aborts before the load, a corrupt source
// aborts after it. Disarmed, the three Fire calls are three atomic loads.
func (s *Server) loadGuarded(load func() (*remi.System, error)) (*remi.System, error) {
	ctx := context.Background()
	_ = faults.Fire(ctx, faults.ReloadSlow) // delay-only point
	if err := faults.Fire(ctx, faults.ReloadOpen); err != nil {
		return nil, fmt.Errorf("opening KB source: %w", err)
	}
	sys, err := load()
	if err != nil {
		return nil, err
	}
	if err := faults.Fire(ctx, faults.ReloadCorrupt); err != nil {
		return nil, fmt.Errorf("validating KB source: %w", err)
	}
	return sys, nil
}

// StartDrain begins graceful shutdown: readiness (/readyz) flips to 503 so
// load balancers stop routing here, mining endpoints refuse new work with
// 503, and the job subsystem stops admitting — while everything already
// in flight (queued and running jobs, open streams, pollable results)
// proceeds normally. Wait for quiescence with DrainWait, then Close.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.jobs.Drain()
}

// DrainWait blocks until every tracked job has finished or ctx ends.
func (s *Server) DrainWait(ctx context.Context) error { return s.jobs.DrainWait(ctx) }

// cacheKey tags a normalized query key with the KB it runs on and that KB's
// current generation.
func (s *Server) cacheKey(e *kbEntry, key string) string {
	return e.name + "#" + strconv.FormatInt(e.generation.Load(), 10) + "|" + key
}
