package wire

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// keyOf is the key both tiers build for a body: normalise, canonicalise,
// serialise.
func keyOf(q MineRequest) string {
	q.Targets = append([]string(nil), q.Targets...)
	q.Normalize()
	q.Canonicalize()
	return q.Key()
}

// TestKeyEquivalences is the contract the tiers share: every spelling of
// one query has one key (so it meets one cache entry on one replica), and
// every option that changes the result changes the key.
func TestKeyEquivalences(t *testing.T) {
	base := MineRequest{Targets: []string{"a", "b"}}
	for _, tc := range []struct {
		name string
		a, b MineRequest
		same bool
	}{
		{"permuted targets", base, MineRequest{Targets: []string{"b", "a"}}, true},
		{"duplicated targets", base, MineRequest{Targets: []string{"a", "b", "a", "b"}}, true},
		{"metric \"\" is fr", base, MineRequest{Targets: base.Targets, Metric: "fr"}, true},
		{"language \"\" is remi", base, MineRequest{Targets: base.Targets, Language: "remi"}, true},
		{"language extended is remi", base, MineRequest{Targets: base.Targets, Language: "extended"}, true},
		{"top_k 0 is 1", base, MineRequest{Targets: base.Targets, TopK: 1}, true},
		{"workers 0 is 1", base, MineRequest{Targets: base.Targets, Workers: 1}, true},
		{"the KB is not in the key", base, MineRequest{Targets: base.Targets, KB: "geo"}, true},

		{"targets", base, MineRequest{Targets: []string{"a", "c"}}, false},
		{"metric", base, MineRequest{Targets: base.Targets, Metric: "pr"}, false},
		{"language", base, MineRequest{Targets: base.Targets, Language: "standard"}, false},
		{"top_k", base, MineRequest{Targets: base.Targets, TopK: 3}, false},
		{"workers", base, MineRequest{Targets: base.Targets, Workers: 4}, false},
		{"exceptions", base, MineRequest{Targets: base.Targets, Exceptions: 2}, false},
		{"timeout_ms", base, MineRequest{Targets: base.Targets, TimeoutMS: 250}, false},
		{"a crafted IRI is not a target list", MineRequest{Targets: []string{"1:a1:b"}}, base, false},
	} {
		ka, kb := keyOf(tc.a), keyOf(tc.b)
		if (ka == kb) != tc.same {
			t.Errorf("%s: keys %q and %q, want same=%v", tc.name, ka, kb, tc.same)
		}
	}
}

func TestCanonicalizeLeavesUnknownNames(t *testing.T) {
	q := MineRequest{Metric: "bogus", Language: "klingon", Workers: -1, TopK: -1}
	q.Canonicalize()
	if q.Metric != "bogus" || q.Language != "klingon" || q.Workers != -1 || q.TopK != -1 {
		t.Fatalf("canonicalisation hid invalid input from the replica's validation: %+v", q)
	}
}

func TestRequestEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/mine", nil)
	EnsureRequestID(rec, req)
	if id := req.Header.Get(HeaderRequestID); len(id) != 16 || rec.Header().Get(HeaderRequestID) != id {
		t.Fatalf("minted id %q not stamped on request and response", id)
	}
	req.Header.Set(HeaderRequestID, "trace-42")
	EnsureRequestID(rec, req)
	if got := rec.Header().Get(HeaderRequestID); got != "trace-42" || req.Header.Get(HeaderRequestID) != got {
		t.Fatalf("caller's id replaced by %q", got)
	}

	for h, want := range map[string]time.Duration{"": 0, "250": 250 * time.Millisecond, "0": 0, "-5": 0, "garbage": 0} {
		req.Header.Set(HeaderTimeoutBudget, h)
		if got := TimeoutBudget(req); got != want {
			t.Errorf("budget %q = %v, want %v", h, got, want)
		}
	}
}

func TestWriters(t *testing.T) {
	rec := httptest.NewRecorder()
	rec.Header().Set(HeaderRequestID, "trace-42")
	SetRetryAfter(rec, 1500*time.Millisecond)
	WriteError(rec, http.StatusTooManyRequests, errors.New("unknown entity <http://x/a&b>"))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After %q, want the 1.5s hint rounded up to 2", got)
	}
	const want = `{"error":"unknown entity <http://x/a&b>","request_id":"trace-42"}` + "\n"
	if rec.Body.String() != want {
		t.Errorf("error body %q, want %q (IRIs unescaped)", rec.Body.String(), want)
	}
	rec = httptest.NewRecorder()
	SetRetryAfter(rec, 0)
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After for a zero hint %q, want the floor of 1", got)
	}
}

// failingBody is a request body whose read fails midway.
type failingBody struct{}

func (failingBody) Read([]byte) (int, error) { return 0, errors.New("connection reset") }
func (failingBody) Close() error             { return nil }

// TestReadJSON: the one body reader answers in the body's own terms —
// JSON keys and JSON types — and returns the bytes it read.
func TestReadJSON(t *testing.T) {
	read := func(body string, v any) ([]byte, int, error) {
		return ReadJSON(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/mine", strings.NewReader(body)), v)
	}
	for _, tc := range []struct {
		body   string
		status int
		err    string
	}{
		{`{"targets":["a"],"top_k":2}`, 0, ""},
		{``, 0, ""},
		{`{"targets":["a"]} x`, http.StatusBadRequest, "decoding request: invalid character 'x' after top-level value"},
		{`{"targets":`, http.StatusBadRequest, "decoding request: unexpected end of JSON input"},
		{`{"targets":5}`, http.StatusBadRequest, `decoding request: "targets": got a JSON number, want an array`},
		{`{"sets":[[true]]}`, http.StatusBadRequest, `decoding request: "sets": got a JSON boolean, want a string`},
		{`{"top_k":1e99}`, http.StatusBadRequest, `decoding request: "top_k": got a JSON number, want a number`},
		{`{"kb":{}}`, http.StatusBadRequest, `decoding request: "kb": got a JSON object, want a string`},
		{`["a"]`, http.StatusBadRequest, "decoding request: got a JSON array, want an object"},
		{`{"targets":["` + strings.Repeat("a", MaxBodyBytes) + `"]}`, http.StatusRequestEntityTooLarge, "request body exceeds 1048576 bytes"},
	} {
		var q MineRequest
		body, status, err := read(tc.body, &q)
		if status != tc.status || (err == nil) != (tc.err == "") || (err != nil && err.Error() != tc.err) {
			t.Errorf("%.40q: status %d, error %v; want %d %q", tc.body, status, err, tc.status, tc.err)
		}
		if status != http.StatusRequestEntityTooLarge && string(body) != tc.body {
			t.Errorf("%.40q: read %q", tc.body, body)
		}
	}
	var q MineRequest
	if _, _, err := read(`{"targets":["b","a"],"top_k":2}`, &q); err != nil || len(q.Targets) != 2 || q.TopK != 2 {
		t.Errorf("decoded %+v, %v", q, err)
	}
	// A nil target reads and checks nothing but the cap.
	if body, status, err := read(`not JSON`, nil); status != 0 || err != nil || string(body) != "not JSON" {
		t.Errorf("read-only: %q %d %v", body, status, err)
	}
	req := httptest.NewRequest("POST", "/v1/mine", nil)
	req.Body = failingBody{}
	if _, status, err := ReadJSON(httptest.NewRecorder(), req, &MineRequest{}); status != http.StatusBadRequest ||
		err == nil || !strings.Contains(err.Error(), "reading request body") {
		t.Errorf("failed read: %d %v", status, err)
	}
	// Every Go kind a body field can have words as its JSON type.
	for v, want := range map[any]string{
		new(struct{ B bool }):           `"B": got a JSON string, want a boolean`,
		new(struct{ M map[string]int }): `"M": got a JSON string, want an object`,
		new(struct{ P []float64 }):      `"P": got a JSON string, want an array`,
		new(struct{ U uint8 }):          `"U": got a JSON string, want a number`,
	} {
		field := reflect.TypeOf(v).Elem().Field(0).Name
		if _, _, err := read(`{"`+field+`":"x"}`, v); err == nil || err.Error() != "decoding request: "+want {
			t.Errorf("%s: %v, want %q", field, err, want)
		}
	}
}
