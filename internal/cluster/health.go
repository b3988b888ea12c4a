package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/remi-kb/remi/internal/faults"
)

// readyBody is the slice of a replica's /readyz answer the prober cares
// about: Degraded reports a KB serving last-known-good under reload
// quarantine — still correct to route to, but worth surfacing in the
// router's stats so an operator sees which replica is stale.
type readyBody struct {
	Status   string `json:"status"`
	Degraded bool   `json:"degraded"`
}

// probeAll probes every replica concurrently and returns when all probes
// settled. It is the body of both the background prober tick and the
// exported ProbeNow.
func (rt *Router) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rep := range rt.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			rt.probe(ctx, rep)
		}(rep)
	}
	wg.Wait()
}

// probe checks one replica's /readyz: a 200 marks it healthy (carrying the
// degraded flag along), anything else — a 503 from a draining replica, a
// transport error, a wedged probe — takes it out of routing until a probe
// succeeds again.
func (rt *Router) probe(ctx context.Context, rep *replica) {
	pctx, cancel := context.WithTimeout(ctx, rt.opts.ProbeTimeout)
	defer cancel()
	if err := faults.Fire(pctx, faults.ProbeTimeout); err != nil {
		rep.setHealth(false, false, "probe: "+err.Error())
		return
	}
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, rep.base+"/readyz", nil)
	if err != nil {
		rep.setHealth(false, false, "probe: "+err.Error())
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rep.setHealth(false, false, "probe: "+err.Error())
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		rep.setHealth(false, false, "probe: /readyz answered "+resp.Status)
		return
	}
	var rb readyBody
	_ = json.Unmarshal(body, &rb) // a 200 with an unparseable body is still ready
	rep.setHealth(true, rb.Degraded, "")
}

// ProbeNow probes every replica once and waits for the results, so tests
// and startup code can drive health state deterministically instead of
// sleeping through a prober tick.
func (rt *Router) ProbeNow(ctx context.Context) { rt.probeAll(ctx) }

// StartProbing launches the background prober at the configured cadence.
// It returns immediately; probing stops when ctx ends.
func (rt *Router) StartProbing(ctx context.Context) {
	go func() {
		t := time.NewTicker(rt.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				rt.probeAll(ctx)
			}
		}
	}()
}
