package wire

import (
	"sort"
	"strconv"
	"strings"
)

// MineRequest is the one request body of the four mining endpoints
// (POST /v1/mine, /v1/mine:batch, /v1/mine:async and /v1/mine:stream):
// Targets for one query or Sets for a batch, plus the options every set
// shares. One query is also the identity both tiers key on: after Normalize
// and Canonicalize, Key is what a replica deduplicates and caches on and
// what the router hashes onto the ring, so two bodies that mean the same
// query meet on one replica, in one cache entry.
type MineRequest struct {
	// Targets are the entity IRIs to describe, deduplicated: required on
	// /v1/mine; on :async and :stream exactly one of Targets and Sets.
	Targets []string `json:"targets"`
	// Sets are the target sets of a batch, one query each under the shared
	// options (required on /v1/mine:batch; not part of Key).
	Sets [][]string `json:"sets,omitempty"`
	// KB routes the request to a registered knowledge base (optional; the
	// default KB when empty, and it must agree with a /v1/kb/{name}/ path).
	KB string `json:"kb,omitempty"`
	// Metric selects the prominence signal: "fr" (default) or "pr".
	Metric string `json:"metric,omitempty"`
	// Language selects the bias: "remi" (default) or "standard".
	Language string `json:"language,omitempty"`
	// Workers requests P-REMI parallelism (0 = server default).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the mining run; 0 uses the server default and values
	// above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// TopK also returns the k-1 next-best expressions.
	TopK int `json:"top_k,omitempty"`
	// Exceptions relaxes unambiguity: up to n extra matches are tolerated.
	Exceptions int `json:"exceptions,omitempty"`
}

// Normalize sorts and deduplicates the targets in place so that equal
// queries share one key regardless of target order.
func (q *MineRequest) Normalize() {
	sort.Strings(q.Targets)
	w := 0
	for i, t := range q.Targets {
		if i == 0 || t != q.Targets[w-1] {
			q.Targets[w] = t
			w++
		}
	}
	q.Targets = q.Targets[:w]
}

// CanonicalMetric resolves the metric aliases: the empty name is "fr".
// Unknown names pass through for the replica to reject.
func CanonicalMetric(metric string) string {
	if metric == "" {
		return "fr"
	}
	return metric
}

// Canonicalize rewrites every option that has more than one spelling to
// the one the key is built from: metric "" is "fr"; language "" and
// "extended" are "remi"; top_k 0 is 1 (both mean "best solution only");
// workers 0 is 1 (sequential REMI). It knows no server configuration — a
// replica applies its configured defaults and clamps on top before keying.
func (q *MineRequest) Canonicalize() {
	q.Metric = CanonicalMetric(q.Metric)
	if q.Language == "" || q.Language == "extended" {
		q.Language = "remi"
	}
	if q.Workers == 0 {
		q.Workers = 1
	}
	if q.TopK == 0 {
		q.TopK = 1
	}
}

// Key serialises the query: the target IRIs plus every option that affects
// the result (the KB is the caller's to add — a replica tags it with the
// KB's generation), so only truly identical queries share a mining run.
// Targets are length-prefixed so no crafted IRI (e.g. one containing a
// separator) can collide with a different target list.
func (q *MineRequest) Key() string {
	var b strings.Builder
	for _, t := range q.Targets {
		b.WriteString(strconv.Itoa(len(t)))
		b.WriteByte(':')
		b.WriteString(t)
	}
	b.WriteString(q.Metric)
	b.WriteByte('|')
	b.WriteString(q.Language)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(q.Workers))
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(q.TimeoutMS, 10))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(q.TopK))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(q.Exceptions))
	return b.String()
}
