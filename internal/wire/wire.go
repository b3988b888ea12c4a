// Package wire is the HTTP contract the routing tier (internal/cluster) and
// the serving tier (internal/server) share, defined once: the cross-tier
// headers, request-id minting, the one body reader (ReadJSON, under
// MaxBodyBytes) and the JSON, error and Retry-After writers, the request
// bodies of the mining endpoints and of /v1/summarize, and the identity of
// a mining query — target-set normalisation, option-alias canonicalisation
// and the key both the replica's result cache and the router's hash ring
// are built from. It imports only the standard library, so remi-router
// links it without linking the miner.
package wire

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Cross-tier headers. X-Request-Id is accepted from the caller or minted by
// the first tier that sees the request, and echoed on every response — job
// documents, stream events and error bodies carry it too, so a failure
// traces across tiers. X-Timeout-Budget-Ms is the caller's remaining
// deadline: the router forwards what is left of it on every attempt and the
// replica makes it the request context's deadline, so a retry never runs
// past what the client was promised.
const (
	HeaderRequestID     = "X-Request-Id"
	HeaderTimeoutBudget = "X-Timeout-Budget-Ms"
)

// NewRequestID is 8 random bytes hex-encoded — short enough for a log
// line, unique enough for a trace window.
func NewRequestID() string {
	var b [8]byte
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// EnsureRequestID mints the request's id when the caller sent none, and
// stamps it on both the request (handlers and forwards read it there) and
// the response.
func EnsureRequestID(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(HeaderRequestID)
	if id == "" {
		id = NewRequestID()
		r.Header.Set(HeaderRequestID, id)
	}
	w.Header().Set(HeaderRequestID, id)
}

// TimeoutBudget reads the request's X-Timeout-Budget-Ms; 0 means the
// caller set no (valid) budget.
func TimeoutBudget(r *http.Request) time.Duration {
	ms, err := strconv.ParseInt(r.Header.Get(HeaderTimeoutBudget), 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// WriteJSON answers with v as the JSON body. HTML escaping is off: IRIs in
// error messages and expressions read <http://…>, not \u003chttp://…\u003e.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// ErrorResponse is the body of every non-2xx response either tier
// originates. RequestID echoes the X-Request-Id the request carried (or was
// assigned), so an error can be correlated across the tiers.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// WriteError answers with err as an ErrorResponse. The request id is the
// one EnsureRequestID stamped on the response, so a client can quote one
// token when reporting a cross-tier failure.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorResponse{Error: err.Error(), RequestID: w.Header().Get(HeaderRequestID)})
}

// SetRetryAfter writes a Retry-After header in whole seconds, rounded up
// and floored at 1 — "Retry-After: 0" invites an immediate retry storm, the
// opposite of what a shed response wants.
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}
