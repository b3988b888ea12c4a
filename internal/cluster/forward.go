package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/remi-kb/remi/internal/faults"
	"github.com/remi-kb/remi/internal/wire"
)

// This file is the forwarding policy: which replicas a request is tried on
// and in what order, when an answer is good enough to pass on, and what a
// retry, a hedge and the client's budget each cost. router.go is the HTTP
// plumbing around it.

// attemptResult is one forward's outcome plus the cancel that releases its
// per-attempt context — the caller must invoke cancel (via close) once the
// response body is consumed or abandoned.
type attemptResult struct {
	rep    *replica
	resp   *http.Response
	err    error
	dur    time.Duration
	cancel context.CancelFunc
}

func (a *attemptResult) close() {
	if a.resp != nil {
		io.Copy(io.Discard, io.LimitReader(a.resp.Body, 1<<16))
		a.resp.Body.Close()
	}
	if a.cancel != nil {
		a.cancel()
	}
}

// fail books an unusable attempt against its replica (breaker, failure
// count), releases it, and returns what went wrong.
func (a *attemptResult) fail() error {
	a.rep.breaker.Report(false)
	a.rep.failures.Add(1)
	err := a.err
	if err == nil {
		err = fmt.Errorf("replica %s answered %s", a.rep.name, a.resp.Status)
	}
	a.close()
	return err
}

// forward is the robustness envelope: walk the key's ring sequence over
// the healthy replicas, breaker-gated, with backoff between attempts, a
// hedged second request on the first try, and the whole walk bounded by
// the client's timeout budget. The first usable response passes through
// unchanged; only a fleet with nothing to try answers 503.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte, stream bool) {
	rt.nForwards.Add(1)
	seq := rt.ring.Sequence(key)
	primaryName := seq[0]
	cands := make([]*replica, 0, len(seq))
	for _, name := range seq {
		if rep := rt.byName[name]; rep.healthy() {
			cands = append(cands, rep)
		}
	}
	if len(cands) == 0 {
		rt.nUnavailable.Add(1)
		wire.SetRetryAfter(w, rt.opts.ProbeInterval)
		wire.WriteError(w, http.StatusServiceUnavailable, errors.New("no healthy replicas"))
		return
	}

	ctx := r.Context()
	if budget := clientBudget(r, stream, rt.opts.DefaultTimeout); budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	attempted := false
	var lastErr error
	for i := 0; i < rt.opts.MaxAttempts; i++ {
		rep := cands[i%len(cands)]
		if !rep.breaker.Allow() {
			continue
		}
		if attempted {
			rt.nRetries.Add(1)
			if !sleepBackoff(ctx, rt.opts.RetryBaseDelay, rt.opts.RetryMaxDelay, i) {
				break // budget exhausted mid-backoff
			}
		}
		if ctx.Err() != nil {
			break
		}
		var res attemptResult
		if !attempted && !stream && !rt.opts.HedgeDisabled && len(cands) > 1 {
			res = rt.attemptHedged(ctx, r, body, rep, cands[(i+1)%len(cands)], primaryName)
		} else {
			res = rt.attempt(ctx, r, body, rep, rep.name == primaryName)
		}
		attempted = true
		if usable(res) {
			res.rep.breaker.Report(true)
			rt.lat.observe(res.dur)
			if res.rep.name != primaryName {
				rt.nFailovers.Add(1)
			}
			rt.writeResponse(w, res, stream)
			return
		}
		lastErr = res.fail()
	}
	switch {
	case !attempted:
		rt.nUnavailable.Add(1)
		wire.SetRetryAfter(w, rt.opts.BreakerCooldown)
		wire.WriteError(w, http.StatusServiceUnavailable, errors.New("all replica circuit breakers open"))
	case ctx.Err() != nil:
		wire.WriteError(w, http.StatusGatewayTimeout,
			fmt.Errorf("timeout budget exhausted after retries: %w", lastErr))
	default:
		wire.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("all forward attempts failed: %w", lastErr))
	}
}

// clientBudget is the deadline the router owes the client: an explicit
// X-Timeout-Budget-Ms wins; non-streaming requests fall back to the
// default, streams run unbounded unless the client bounded them.
func clientBudget(r *http.Request, stream bool, def time.Duration) time.Duration {
	if budget := wire.TimeoutBudget(r); budget > 0 {
		return budget
	}
	if stream {
		return 0
	}
	return def
}

// sleepBackoff parks for the i-th retry's jittered exponential delay;
// false means the context expired first.
func sleepBackoff(ctx context.Context, base, max time.Duration, i int) bool {
	d := base << (i - 1)
	if d > max || d <= 0 {
		d = max
	}
	// Full jitter over [d/2, d): desynchronizes routers retrying into the
	// same recovering replica.
	d = d/2 + time.Duration(mrand.Int64N(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// usable reports whether an attempt's outcome should be passed to the
// client rather than retried. Transport errors and 500/502 retry; a 503
// without Retry-After is an instance-local refusal (e.g. a draining
// replica between probes) and fails over; everything else — success, any
// 4xx, a 429 or 503 carrying a Retry-After hint, a 504 — passes through
// unchanged, because retrying those elsewhere would either duplicate work
// past the client's deadline or storm a replica that is deliberately
// shedding.
func usable(res attemptResult) bool {
	if res.err != nil {
		return false
	}
	switch res.resp.StatusCode {
	case http.StatusInternalServerError, http.StatusBadGateway:
		return false
	case http.StatusServiceUnavailable:
		return res.resp.Header.Get("Retry-After") != ""
	}
	return true
}

// attempt forwards the buffered request to one replica under its own
// cancellable context. The replica-fault points fire only when the target
// is the key's ring primary, so chaos tests can take "the primary" down
// without blinding the whole fleet.
func (rt *Router) attempt(ctx context.Context, r *http.Request, body []byte, rep *replica, primary bool) attemptResult {
	actx, cancel := context.WithCancel(ctx)
	res := attemptResult{rep: rep, cancel: cancel}
	rep.forwards.Add(1)
	start := time.Now()
	if primary && faults.Armed() {
		_ = faults.Fire(actx, faults.ReplicaSlow) // delay-only point
		if err := faults.Fire(actx, faults.ReplicaDown); err != nil {
			res.err = fmt.Errorf("replica %s: %w", rep.name, err)
			res.dur = time.Since(start)
			return res
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, r.Method, rep.base+r.URL.RequestURI(), rd)
	if err != nil {
		res.err = err
		return res
	}
	req.Header = r.Header.Clone() // the request id ServeHTTP ensured rides along
	if dl, ok := actx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set(wire.HeaderTimeoutBudget, strconv.FormatInt(ms, 10))
	}
	res.resp, res.err = rt.client.Do(req)
	res.dur = time.Since(start)
	return res
}

// attemptHedged races the primary attempt against a hedge to the next
// candidate: if the primary hasn't answered within the hedge delay
// (EWMA-p99-derived, i.e. "already slower than almost everything we've
// seen"), a second identical request starts and whichever usable response
// lands first wins; the loser's context is cancelled so the fleet doesn't
// finish work nobody will read.
func (rt *Router) attemptHedged(ctx context.Context, r *http.Request, body []byte, prim, backup *replica, primaryName string) attemptResult {
	hedged := false
	primCtx, primCancel := context.WithCancel(ctx)
	hedCtx, hedCancel := context.WithCancel(ctx)
	ch := make(chan attemptResult, 2)
	go func() { ch <- rt.attempt(primCtx, r, body, prim, prim.name == primaryName) }()
	t := time.NewTimer(rt.hedgeDelay())
	defer t.Stop()
	var first attemptResult
	select {
	case first = <-ch:
	case <-ctx.Done():
		first = <-ch
	case <-t.C:
		if backup.breaker.Allow() {
			hedged = true
			rt.nHedges.Add(1)
			go func() { ch <- rt.attempt(hedCtx, r, body, backup, backup.name == primaryName) }()
		}
		first = <-ch
	}
	if !hedged {
		hedCancel()
		return chainCancel(first, primCancel)
	}
	if usable(first) {
		// Cancel the straggler and discard its eventual result. A
		// cancellation we caused is not evidence about the replica, so
		// the discard reports only genuine outcomes to its breaker.
		var winCancel, loseCancel context.CancelFunc
		if first.rep == backup {
			rt.nHedgeWins.Add(1)
			winCancel, loseCancel = hedCancel, primCancel
		} else {
			winCancel, loseCancel = primCancel, hedCancel
		}
		loseCancel()
		go func() {
			late := <-ch
			if late.err == nil || !errors.Is(late.err, context.Canceled) {
				late.rep.breaker.Report(usable(late))
			}
			late.close()
		}()
		return chainCancel(first, winCancel)
	}
	// The first finisher failed: report it and settle on the other. The
	// survivor's hedge context must outlive its body read, so it rides
	// along in the result's cancel; the loser's is released now.
	_ = first.fail()
	second := <-ch
	if second.rep == backup {
		primCancel()
		return chainCancel(second, hedCancel)
	}
	hedCancel()
	return chainCancel(second, primCancel)
}

// chainCancel appends extra context releases to a result's cancel so they
// run when the result is closed (after its body is consumed), not before.
func chainCancel(res attemptResult, extra context.CancelFunc) attemptResult {
	inner := res.cancel
	res.cancel = func() {
		if inner != nil {
			inner()
		}
		extra()
	}
	return res
}

// hedgeDelay is the current hedge trigger: fixed when configured, else the
// latency tracker's p99, else the fallback until enough samples arrived.
func (rt *Router) hedgeDelay() time.Duration {
	if rt.opts.HedgeDelay > 0 {
		return rt.opts.HedgeDelay
	}
	if p := rt.lat.p99(); p > 0 {
		return p
	}
	return rt.opts.HedgeFallback
}

// forwardJob routes job-lifecycle requests. Job ids are replica-local
// (each replica runs its own registry), so the router walks the id's ring
// sequence and treats a 404 as "not here, ask the next one"; only when
// every reachable replica disclaims the id does the last 404 pass through.
func (rt *Router) forwardJob(w http.ResponseWriter, r *http.Request) {
	rt.nForwards.Add(1)
	stream := strings.HasSuffix(r.URL.Path, "/stream")
	ctx := r.Context()
	if budget := clientBudget(r, stream, rt.opts.DefaultTimeout); budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	seq := rt.ring.Sequence("job|" + strings.TrimPrefix(r.URL.Path, "/v1/jobs/"))
	var notFound *attemptResult
	var lastErr error
	attempted := false
	for _, name := range seq {
		rep := rt.byName[name]
		if !rep.healthy() || !rep.breaker.Allow() {
			continue
		}
		res := rt.attempt(ctx, r, nil, rep, false)
		attempted = true
		if res.err == nil && res.resp.StatusCode == http.StatusNotFound {
			rep.breaker.Report(true)
			if notFound != nil {
				notFound.close()
			}
			notFound = &res
			continue
		}
		if usable(res) {
			rep.breaker.Report(true)
			if notFound != nil {
				notFound.close()
			}
			rt.writeResponse(w, res, stream)
			return
		}
		lastErr = res.fail()
	}
	switch {
	case notFound != nil:
		rt.writeResponse(w, *notFound, false)
	case !attempted:
		rt.nUnavailable.Add(1)
		wire.SetRetryAfter(w, rt.opts.ProbeInterval)
		wire.WriteError(w, http.StatusServiceUnavailable, errors.New("no healthy replicas"))
	default:
		wire.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("all forward attempts failed: %w", lastErr))
	}
}
