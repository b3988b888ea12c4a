package server

import (
	"net/http"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/wire"
)

// This file is the stats and health plane: the aggregates mining runs fold
// into, /v1/stats, and the liveness and readiness probes.

// recordRun folds one completed mining run into the aggregate stats.
func (s *Server) recordRun(res *remi.Result) {
	st := wireStats(res.Stats)
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	s.agg.Candidates += int64(res.Stats.Candidates)
	s.agg.Visited += res.Stats.Visited
	s.agg.RETests += res.Stats.RETests
	s.agg.CacheHits += res.Stats.CacheHits
	s.agg.CacheMisses += res.Stats.CacheMisses
	s.agg.TotalSearchMS += st.SearchMS
	s.agg.TotalQueueMS += st.QueueBuildMS
	if res.Stats.TimedOut {
		s.agg.TimedOut++
	}
	if res.Found {
		s.agg.SolutionsFound++
	}
	s.lastRun = &st
	s.lastAt = time.Now()
}

// kbInfo snapshots one registry entry for the stats endpoints.
func (s *Server) kbInfo(e *kbEntry) KBInfo {
	sys := e.sys()
	info := KBInfo{
		Facts:              sys.NumFacts(),
		Entities:           sys.NumEntities(),
		Predicates:         sys.NumPredicates(),
		Generation:         e.generation.Load(),
		Requests:           e.requests.Load(),
		Default:            e.name == s.defaultName,
		ReloadFailures:     e.reloadFailures.Load(),
		LastGoodGeneration: e.lastGoodGen.Load(),
	}
	if e.live != nil {
		st := e.live.Stats()
		info.Live = true
		info.FactsApplied = st.FactsApplied
		info.WalBytes = st.WalBytes
		info.WalRecords = st.WalRecords
		info.RecoveryReplayed = st.RecoveryReplayed
		info.LastCompactionGeneration = e.lastCompactionGen.Load()
		info.PendingAdds = st.PendingAdds
		info.PendingDels = st.PendingDels
	}
	if until := e.quarantineUntil.Load(); until > 0 {
		// Ceiling, not truncation: while the reload path still refuses, the
		// stats must not claim the quarantine is over.
		if left := time.Until(time.Unix(0, until)); left > 0 {
			info.QuarantinedForMS = int64((left + time.Millisecond - 1) / time.Millisecond)
		}
	}
	return info
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.cStats.requests.Add(1)
	// /v1/kb/{kb}/stats (or ?kb=) narrows the response to one KB.
	if r.PathValue("kb") != "" || r.URL.Query().Get("kb") != "" {
		e, err := s.kbFromRequest(r, "")
		if err != nil {
			s.writeError(w, &s.cStats, errStatus(err), err)
			return
		}
		wire.WriteJSON(w, http.StatusOK, KBStatsResponse{Name: e.name, KBInfo: s.kbInfo(e)})
		return
	}
	var out StatsResponse
	out.UptimeSeconds = time.Since(s.started).Seconds()
	out.KB.Facts = s.sys().NumFacts()
	out.KB.Entities = s.sys().NumEntities()
	out.KB.Predicates = s.sys().NumPredicates()
	s.mu.RLock()
	out.KBs = make(map[string]KBInfo, len(s.kbs))
	for name, e := range s.kbs {
		out.KBs[name] = s.kbInfo(e)
	}
	s.mu.RUnlock()
	out.Endpoints = map[string]EndpointStats{
		"mine":          s.cMine.stats(),
		"facts":         s.cFacts.stats(),
		"admin_compile": s.cCompile.stats(),
		"mine_batch":    s.cMineBatch.stats(),
		"mine_async":    s.cMineAsync.stats(),
		"mine_stream":   s.cMineStream.stats(),
		"jobs":          s.cJobs.stats(),
		"summarize":     s.cSummarize.stats(),
		"describe":      s.cDescribe.stats(),
		"stats":         s.cStats.stats(),
		"healthz":       s.cHealth.stats(),
		"readyz":        s.cReady.stats(),
		"not_found":     s.cNotFound.stats(),
	}
	js := s.jobs.Snapshot()
	out.Jobs = &js
	out.Draining = s.draining.Load()
	if s.quota != nil {
		out.Quota = &QuotaStats{
			Enabled:    true,
			RatePerSec: s.quota.rate,
			Burst:      s.quota.burst,
			Clients:    s.quota.clients(),
			Rejected:   s.quotaRejected.Load(),
		}
	}
	s.aggMu.Lock()
	out.Mining = s.agg
	out.Mining.LastRun = s.lastRun
	if !s.lastAt.IsZero() {
		out.Mining.LastRunUnixNS = s.lastAt.UnixNano()
	}
	s.aggMu.Unlock()
	out.Mining.Runs = s.mineRuns.Load()
	out.Mining.DedupedHits = s.dedupedHits.Load()
	if s.results != nil {
		hits, misses := s.results.Stats()
		out.ResultCache = ResultCacheStats{
			Enabled: true,
			Size:    s.results.Len(),
			Hits:    hits,
			Misses:  misses,
		}
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// handleHealth is liveness: the process is up and can answer — always 200,
// draining or not. Orchestrators use it to decide whether to restart the
// process; routing decisions belong to /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.cHealth.requests.Add(1)
	s.mu.RLock()
	kbCount := len(s.kbs)
	s.mu.RUnlock()
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"facts":    s.sys().NumFacts(),
		"entities": s.sys().NumEntities(),
		"kbs":      kbCount,
		"draining": s.draining.Load(),
	})
}

// handleReady is readiness: whether this instance should receive new
// traffic. Draining answers 503 so load balancers take it out of rotation
// while /healthz keeps reporting the process alive.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.cReady.requests.Add(1)
	if s.draining.Load() {
		s.writeError(w, &s.cReady, http.StatusServiceUnavailable, errDraining)
		return
	}
	// degraded: still correct to route to (last-known-good generations keep
	// serving), but at least one KB source is quarantined after failed
	// reloads — a router surfaces it so operators see staleness early.
	wire.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "degraded": s.anyQuarantined()})
}

// anyQuarantined reports whether any registered KB currently refuses
// reloads after failures (it keeps serving its last known good system).
func (s *Server) anyQuarantined() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := time.Now().UnixNano()
	for _, e := range s.kbs {
		if until := e.quarantineUntil.Load(); until != 0 && until > now {
			return true
		}
	}
	return false
}
