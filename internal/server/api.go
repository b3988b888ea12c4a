package server

import (
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/server/jobs"
)

// MineStats is the wire form of remi.MineStats.
type MineStats struct {
	Candidates   int     `json:"candidates"`
	QueueBuildMS float64 `json:"queue_build_ms"`
	SearchMS     float64 `json:"search_ms"`
	Visited      uint64  `json:"visited"`
	RETests      uint64  `json:"re_tests"`
	TimedOut     bool    `json:"timed_out"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
}

// MineResponse is the body of a successful POST /v1/mine.
type MineResponse struct {
	Found bool `json:"found"`
	// Solution is present when Found.
	Solution     *remi.Solution  `json:"solution,omitempty"`
	Alternatives []remi.Solution `json:"alternatives,omitempty"`
	Exceptions   []string        `json:"exceptions,omitempty"`
	Stats        MineStats       `json:"stats"`
	// Deduplicated reports that this response was served by joining a mining
	// run already in flight for an identical query.
	Deduplicated bool `json:"deduplicated,omitempty"`
	// Cached reports that this response was served from the completed-result
	// LRU without running a search.
	Cached bool `json:"cached,omitempty"`
}

// SummarizeRequest is the body of POST /v1/summarize.
type SummarizeRequest struct {
	Entity string `json:"entity"`
	// KB routes the request to a registered knowledge base (optional).
	KB string `json:"kb,omitempty"`
	// Size is the number of features to return (default 5).
	Size   int    `json:"size,omitempty"`
	Metric string `json:"metric,omitempty"`
}

// BatchMineItem is the outcome of one target set of a batch: exactly one of
// Response or Error is set. Error entries carry the HTTP status the same
// query would have received from /v1/mine.
type BatchMineItem struct {
	Response *MineResponse `json:"response,omitempty"`
	Error    string        `json:"error,omitempty"`
	Status   int           `json:"status,omitempty"`
}

// BatchMineStats aggregates one batch response.
type BatchMineStats struct {
	// Sets is the number of input sets; Mined counts the searches actually
	// executed (deduplicated, cached and failed sets run none).
	Sets         int `json:"sets"`
	Mined        int `json:"mined"`
	Deduplicated int `json:"deduplicated"`
	Cached       int `json:"cached"`
	Errors       int `json:"errors"`
	// QueueBuildMS and SearchMS sum the phase times of the executed
	// searches.
	QueueBuildMS float64 `json:"queue_build_ms"`
	SearchMS     float64 `json:"search_ms"`
	// CacheHits and CacheMisses sum the memo lookups of the executed
	// searches (each run's memo of its queue's binding sets).
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// BatchMineResponse is the body of a successful POST /v1/mine:batch:
// results[i] answers sets[i].
type BatchMineResponse struct {
	KB      string          `json:"kb"`
	Results []BatchMineItem `json:"results"`
	Stats   BatchMineStats  `json:"stats"`
}

// SummarizeResponse is the body of a successful POST /v1/summarize.
type SummarizeResponse struct {
	Entity   string    `json:"entity"`
	Features []Feature `json:"features"`
}

// Feature is one predicate–object pair of an entity summary.
type Feature struct {
	Predicate string `json:"predicate"`
	Object    string `json:"object"`
}

// DescribeResponse is the body of GET /v1/describe.
type DescribeResponse struct {
	Entity string `json:"entity"`
	Label  string `json:"label"`
}

// EndpointStats counts requests and errors for one endpoint.
type EndpointStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
}

// KBInfo describes one registered knowledge base.
type KBInfo struct {
	Facts      int   `json:"facts"`
	Entities   int   `json:"entities"`
	Predicates int   `json:"predicates"`
	Generation int64 `json:"generation"` // reloads since start
	Requests   int64 `json:"requests"`   // requests routed to this KB
	Default    bool  `json:"default,omitempty"`
	// ReloadFailures counts reloads that failed validation and were rolled
	// back; the entry kept serving LastGoodGeneration throughout.
	ReloadFailures     int64 `json:"reload_failures,omitempty"`
	LastGoodGeneration int64 `json:"last_good_generation,omitempty"`
	// QuarantinedForMS is the remaining reload-quarantine window after a
	// failed reload (0 when reloads are admitted).
	QuarantinedForMS int64 `json:"quarantined_for_ms,omitempty"`

	// Live KB fields (absent for snapshot/file-backed entries). FactsApplied
	// counts mutation ops acknowledged since boot; WalBytes/WalRecords size
	// the unfolded tail a crash would replay; RecoveryReplayed counts the
	// records replayed at the last boot; LastCompactionGeneration is the
	// generation the most recent compile wrote (0 also before any compile).
	Live                     bool  `json:"live,omitempty"`
	FactsApplied             int64 `json:"facts_applied,omitempty"`
	WalBytes                 int64 `json:"wal_bytes,omitempty"`
	WalRecords               int64 `json:"wal_records,omitempty"`
	RecoveryReplayed         int64 `json:"recovery_replayed,omitempty"`
	LastCompactionGeneration int64 `json:"last_compaction_generation,omitempty"`
	PendingAdds              int   `json:"pending_adds,omitempty"`
	PendingDels              int   `json:"pending_dels,omitempty"`
}

// FactOp is one mutation of a facts batch. Terms are N-Triples encoded
// (<iri>, "literal", _:blank); op is "upsert" (default) or "retract".
type FactOp struct {
	Op string `json:"op,omitempty"`
	S  string `json:"s"`
	P  string `json:"p"`
	O  string `json:"o"`
}

// FactsRequest is the body of POST /v1/kb/{name}/facts.
type FactsRequest struct {
	KB  string   `json:"kb,omitempty"` // alternative to the path form
	Ops []FactOp `json:"ops"`
}

// FactsResponse acknowledges a durable mutation batch: by the time a
// client reads it, the ops are fsynced in the WAL and the returned
// generation is serving them.
type FactsResponse struct {
	KB         string `json:"kb"`
	Applied    int    `json:"applied"` // ops accepted (including no-ops)
	Changed    int    `json:"changed"` // ops that altered the fact set
	Generation int64  `json:"generation"`
	WalBytes   int64  `json:"wal_bytes"`
	WalRecords int64  `json:"wal_records"`
	RequestID  string `json:"request_id,omitempty"`
}

// CompileRequest is the (optional) body of POST /v1/admin/compile.
type CompileRequest struct {
	KB string `json:"kb,omitempty"`
}

// CompileResponse reports a completed compaction: the WAL is truncated and
// the returned generation serves from the freshly folded snapshot.
type CompileResponse struct {
	KB          string `json:"kb"`
	Generation  int64  `json:"generation"`
	Compactions int64  `json:"compactions"`
	WalBytes    int64  `json:"wal_bytes"`
	RequestID   string `json:"request_id,omitempty"`
}

// KBStatsResponse is the body of GET /v1/kb/{name}/stats.
type KBStatsResponse struct {
	Name string `json:"name"`
	KBInfo
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// KB sizes the default knowledge base (kept for single-KB deployments;
	// KBs lists every registered one).
	KB struct {
		Facts      int `json:"facts"`
		Entities   int `json:"entities"`
		Predicates int `json:"predicates"`
	} `json:"kb"`
	KBs       map[string]KBInfo        `json:"kbs"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
	Mining    MiningStats              `json:"mining"`
	// ResultCache describes the completed-result LRU (all zeros with
	// enabled=false when the cache is turned off).
	ResultCache ResultCacheStats `json:"result_cache"`
	// Jobs describes the unified job subsystem every mining request runs
	// through: pool gauges, admission-control counters, lifecycle totals.
	Jobs *jobs.Stats `json:"jobs,omitempty"`
	// Draining reports that the server has stopped admitting mining work and
	// is waiting for in-flight jobs to finish (see /readyz).
	Draining bool `json:"draining,omitempty"`
	// Quota describes the per-client admission limiter (absent when off).
	Quota *QuotaStats `json:"quota,omitempty"`
}

// QuotaStats describes the per-client token-bucket limiter under /v1/stats.
type QuotaStats struct {
	Enabled    bool    `json:"enabled"`
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      float64 `json:"burst"`
	// Clients is the number of buckets currently tracked (clients seen
	// recently enough to still hold a deficit).
	Clients  int   `json:"clients"`
	Rejected int64 `json:"rejected"`
}

// ResultCacheStats describes the completed-result LRU of /v1/mine.
type ResultCacheStats struct {
	Enabled bool   `json:"enabled"`
	Size    int    `json:"size"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// MiningStats aggregates the miner's MineStats across every run the server
// has executed, plus the stats of the most recent run.
type MiningStats struct {
	Runs           int64      `json:"runs"`
	DedupedHits    int64      `json:"deduped_hits"`
	TimedOut       int64      `json:"timed_out"`
	Candidates     int64      `json:"candidates"`
	Visited        uint64     `json:"visited"`
	RETests        uint64     `json:"re_tests"`
	CacheHits      uint64     `json:"cache_hits"`
	CacheMisses    uint64     `json:"cache_misses"`
	LastRun        *MineStats `json:"last_run,omitempty"`
	LastRunUnixNS  int64      `json:"last_run_unix_ns,omitempty"`
	TotalSearchMS  float64    `json:"total_search_ms"`
	TotalQueueMS   float64    `json:"total_queue_build_ms"`
	SolutionsFound int64      `json:"solutions_found"`
}

func wireStats(st remi.MineStats) MineStats {
	return MineStats{
		Candidates:   st.Candidates,
		QueueBuildMS: float64(st.QueueBuild) / float64(time.Millisecond),
		SearchMS:     float64(st.Search) / float64(time.Millisecond),
		Visited:      st.Visited,
		RETests:      st.RETests,
		TimedOut:     st.TimedOut,
		CacheHits:    st.CacheHits,
		CacheMisses:  st.CacheMisses,
	}
}

func wireResult(res *remi.Result, deduped, cached bool) *MineResponse {
	out := &MineResponse{
		Found:        res.Found,
		Stats:        wireStats(res.Stats),
		Deduplicated: deduped,
		Cached:       cached,
		Exceptions:   res.Exceptions,
	}
	if res.Found {
		sol := res.Solution
		out.Solution = &sol
		out.Alternatives = res.Alternatives
	}
	return out
}

// JobResponse describes one job: the 202 body of /v1/mine:async, the poll
// body of GET /v1/jobs/{id}, and the final stream event payload. Exactly one
// of Result (kind "mine") or Batch (kind "mine_batch") is present once the
// job is done; Error and Status carry the outcome of a failed or cancelled
// job (Status is the HTTP code the blocking endpoint would have answered).
type JobResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Kind  string `json:"kind"`
	KB    string `json:"kb,omitempty"`
	// RequestID is the X-Request-Id of the request that created the job,
	// kept on the job doc so async failures trace back across tiers.
	RequestID      string             `json:"request_id,omitempty"`
	CreatedUnixNS  int64              `json:"created_unix_ns,omitempty"`
	StartedUnixNS  int64              `json:"started_unix_ns,omitempty"`
	FinishedUnixNS int64              `json:"finished_unix_ns,omitempty"`
	Error          string             `json:"error,omitempty"`
	Status         int                `json:"status,omitempty"`
	Result         *MineResponse      `json:"result,omitempty"`
	Batch          *BatchMineResponse `json:"batch,omitempty"`
}

// Stream event names: every line of an NDJSON stream (and every SSE event)
// is one StreamEvent whose Event field holds one of these.
const (
	// streamProgress reports a new best expression found by a running
	// single-set search (kind "new_best").
	streamProgress = "progress"
	// streamEntry delivers one finished batch entry: Index addresses the
	// input set, Response/Error/Status mirror BatchMineItem.
	streamEntry = "entry"
	// streamResult delivers the final result of a single-set stream.
	streamResult = "result"
	// streamError ends a stream whose run failed (the HTTP status is already
	// sent by then, so the error travels in-band).
	streamError = "error"
	// streamDone ends every stream: Job carries the final job document on
	// job streams; KB and Stats summarize a batch stream.
	streamDone = "done"
	// streamTruncated warns a follower that the job's bounded event log was
	// lapped before it caught up: Dropped counts the events it can no longer
	// see. The stream then resumes at the oldest retained event.
	streamTruncated = "truncated"
)

// StreamEvent is the wire form of one streamed event; fields are populated
// according to Event (see the stream event names).
type StreamEvent struct {
	Event      string          `json:"event"`
	Kind       string          `json:"kind,omitempty"`
	Expression string          `json:"expression,omitempty"`
	Bits       float64         `json:"bits,omitempty"`
	Index      *int            `json:"index,omitempty"`
	Response   *MineResponse   `json:"response,omitempty"`
	Error      string          `json:"error,omitempty"`
	Status     int             `json:"status,omitempty"`
	Job        *JobResponse    `json:"job,omitempty"`
	KB         string          `json:"kb,omitempty"`
	Stats      *BatchMineStats `json:"stats,omitempty"`
	// Dropped counts the log events lost to truncation (event "truncated").
	Dropped int `json:"dropped,omitempty"`
}
