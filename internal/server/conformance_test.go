package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/remi-kb/remi/internal/wire"
)

// TestHTTPErrorConformance is the table-driven contract every endpoint's
// error paths share: each case must answer with the expected status, a
// Content-Type of application/json and a decodable ErrorResponse carrying a
// message — including the responses the Go 1.22 mux would otherwise emit as
// plain text (unknown path, method mismatch). Each case also lands in an
// endpoint counter, asserted in bulk at the end.
func TestHTTPErrorConformance(t *testing.T) {
	s := tinyServer(t, Options{
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     time.Minute,
		MaxBatchSets:   4,
		MaxTargets:     3,
	})
	h := s.Handler()

	raw := func(method, path, body string) *http.Request {
		var r *http.Request
		if body == "" {
			r = httptest.NewRequest(method, path, nil)
		} else {
			r = httptest.NewRequest(method, path, strings.NewReader(body))
		}
		return r
	}
	oversized := func(pad string) string {
		return `{"targets":["` + strings.Repeat("a", wire.MaxBodyBytes+1024) + `"]` + pad + `}`
	}

	cases := []struct {
		name     string
		req      *http.Request
		want     int
		endpoint string // counter the case must land in
	}{
		// Malformed JSON on every decoding endpoint.
		{"mine malformed json", raw("POST", "/v1/mine", "{not json"), http.StatusBadRequest, "mine"},
		{"batch malformed json", raw("POST", "/v1/mine:batch", "{not json"), http.StatusBadRequest, "mine_batch"},
		{"summarize malformed json", raw("POST", "/v1/summarize", "{not json"), http.StatusBadRequest, "summarize"},
		// Validation failures.
		{"mine empty targets", raw("POST", "/v1/mine", `{"targets":[]}`), http.StatusBadRequest, "mine"},
		{"mine too many targets", raw("POST", "/v1/mine",
			`{"targets":["a","b","c","d"]}`), http.StatusBadRequest, "mine"},
		{"mine bad metric", raw("POST", "/v1/mine",
			`{"targets":["x"],"metric":"zz"}`), http.StatusBadRequest, "mine"},
		{"mine bad language", raw("POST", "/v1/mine",
			`{"targets":["x"],"language":"zz"}`), http.StatusBadRequest, "mine"},
		{"mine negative timeout", raw("POST", "/v1/mine",
			`{"targets":["x"],"timeout_ms":-5}`), http.StatusBadRequest, "mine"},
		{"batch empty", raw("POST", "/v1/mine:batch", `{"sets":[]}`), http.StatusBadRequest, "mine_batch"},
		// One request type on every mining endpoint: a field the endpoint
		// does not use must still have its type, as on the router.
		{"mine sets of the wrong type", raw("POST", "/v1/mine",
			`{"targets":["x"],"sets":5}`), http.StatusBadRequest, "mine"},
		{"batch targets of the wrong type", raw("POST", "/v1/mine:batch",
			`{"sets":[["x"]],"targets":5}`), http.StatusBadRequest, "mine_batch"},
		{"batch oversized", raw("POST", "/v1/mine:batch",
			`{"sets":[["a"],["b"],["c"],["d"],["e"]]}`), http.StatusBadRequest, "mine_batch"},
		{"summarize empty entity", raw("POST", "/v1/summarize", `{}`), http.StatusBadRequest, "summarize"},
		{"describe no entity", raw("GET", "/v1/describe", ""), http.StatusBadRequest, "describe"},
		// Oversized bodies.
		{"mine body too large", raw("POST", "/v1/mine", oversized("")), http.StatusRequestEntityTooLarge, "mine"},
		{"batch body too large", raw("POST", "/v1/mine:batch",
			strings.Replace(oversized(""), "targets", "sets", 1)), http.StatusRequestEntityTooLarge, "mine_batch"},
		// Unknown entities.
		{"mine unknown entity", raw("POST", "/v1/mine",
			`{"targets":["`+tinyNS+`Nowhere"]}`), http.StatusNotFound, "mine"},
		{"summarize unknown entity", raw("POST", "/v1/summarize",
			`{"entity":"`+tinyNS+`Nowhere"}`), http.StatusNotFound, "summarize"},
		{"describe unknown entity", raw("GET", "/v1/describe?entity="+tinyNS+"Nowhere", ""), http.StatusNotFound, "describe"},
		// Unknown KBs, by field, query and path.
		{"mine unknown kb", raw("POST", "/v1/mine",
			`{"targets":["x"],"kb":"nope"}`), http.StatusNotFound, "mine"},
		{"batch unknown kb path", raw("POST", "/v1/kb/nope/mine:batch",
			`{"sets":[["x"]]}`), http.StatusNotFound, "mine_batch"},
		{"summarize unknown kb", raw("POST", "/v1/summarize",
			`{"entity":"x","kb":"nope"}`), http.StatusNotFound, "summarize"},
		{"describe unknown kb", raw("GET", "/v1/describe?entity=x&kb=nope", ""), http.StatusNotFound, "describe"},
		{"stats unknown kb", raw("GET", "/v1/kb/nope/stats", ""), http.StatusNotFound, "stats"},
		{"kb conflict", raw("POST", "/v1/kb/"+DefaultKBName+"/mine",
			`{"targets":["x"],"kb":"other"}`), http.StatusBadRequest, "mine"},
		{"kb query conflict", raw("POST", "/v1/mine?kb=other",
			`{"targets":["x"],"kb":"`+DefaultKBName+`"}`), http.StatusBadRequest, "mine"},
		// Method mismatches: JSON 405 with an Allow header, counted against
		// the endpoint they belong to.
		{"mine wrong method", raw("GET", "/v1/mine", ""), http.StatusMethodNotAllowed, "mine"},
		{"batch wrong method", raw("GET", "/v1/mine:batch", ""), http.StatusMethodNotAllowed, "mine_batch"},
		{"summarize wrong method", raw("DELETE", "/v1/summarize", ""), http.StatusMethodNotAllowed, "summarize"},
		{"describe wrong method", raw("POST", "/v1/describe", ""), http.StatusMethodNotAllowed, "describe"},
		{"stats wrong method", raw("POST", "/v1/stats", ""), http.StatusMethodNotAllowed, "stats"},
		{"health wrong method", raw("POST", "/healthz", ""), http.StatusMethodNotAllowed, "healthz"},
		{"ready wrong method", raw("POST", "/readyz", ""), http.StatusMethodNotAllowed, "readyz"},
		{"kb-scoped wrong method", raw("GET", "/v1/kb/"+DefaultKBName+"/mine", ""), http.StatusMethodNotAllowed, "mine"},
		// Async submission: malformed bodies and shape violations.
		{"async malformed json", raw("POST", "/v1/mine:async", "{not json"), http.StatusBadRequest, "mine_async"},
		{"async neither shape", raw("POST", "/v1/mine:async", `{}`), http.StatusBadRequest, "mine_async"},
		{"async both shapes", raw("POST", "/v1/mine:async",
			`{"targets":["x"],"sets":[["y"]]}`), http.StatusBadRequest, "mine_async"},
		{"async unknown kb", raw("POST", "/v1/mine:async",
			`{"targets":["x"],"kb":"nope"}`), http.StatusNotFound, "mine_async"},
		{"stream malformed json", raw("POST", "/v1/mine:stream", "{not json"), http.StatusBadRequest, "mine_stream"},
		{"stream neither shape", raw("POST", "/v1/mine:stream", `{}`), http.StatusBadRequest, "mine_stream"},
		{"stream unknown kb", raw("POST", "/v1/mine:stream",
			`{"targets":["x"],"kb":"nope"}`), http.StatusNotFound, "mine_stream"},
		{"stream batch unknown kb path", raw("POST", "/v1/kb/nope/mine:stream",
			`{"sets":[["x"]]}`), http.StatusNotFound, "mine_stream"},
		// Job lifecycle: unknown ids and wrong verbs.
		{"job get unknown", raw("GET", "/v1/jobs/nope", ""), http.StatusNotFound, "jobs"},
		{"job delete unknown", raw("DELETE", "/v1/jobs/nope", ""), http.StatusNotFound, "jobs"},
		{"job stream unknown", raw("GET", "/v1/jobs/nope/stream", ""), http.StatusNotFound, "jobs"},
		{"async wrong method", raw("GET", "/v1/mine:async", ""), http.StatusMethodNotAllowed, "mine_async"},
		{"stream wrong method", raw("GET", "/v1/mine:stream", ""), http.StatusMethodNotAllowed, "mine_stream"},
		{"jobs wrong method", raw("POST", "/v1/jobs/nope", ""), http.StatusMethodNotAllowed, "jobs"},
		{"job stream wrong method", raw("POST", "/v1/jobs/nope/stream", ""), http.StatusMethodNotAllowed, "jobs"},
		// Admin mutation plane. The default KB is not live, so well-formed
		// mutations 409; routing and shape errors hit first where applicable.
		{"facts malformed json", raw("POST", "/v1/facts", "{not json"), http.StatusBadRequest, "facts"},
		{"facts unknown kb", raw("POST", "/v1/kb/nope/facts",
			`{"ops":[{"s":"<a:s>","p":"<a:p>","o":"<a:o>"}]}`), http.StatusNotFound, "facts"},
		{"facts kb not live", raw("POST", "/v1/facts",
			`{"ops":[{"s":"<a:s>","p":"<a:p>","o":"<a:o>"}]}`), http.StatusConflict, "facts"},
		{"facts wrong method", raw("GET", "/v1/facts", ""), http.StatusMethodNotAllowed, "facts"},
		{"kb-scoped facts wrong method", raw("GET", "/v1/kb/"+DefaultKBName+"/facts", ""), http.StatusMethodNotAllowed, "facts"},
		{"compile malformed json", raw("POST", "/v1/admin/compile", "{not json"), http.StatusBadRequest, "admin_compile"},
		{"compile unknown kb", raw("POST", "/v1/admin/compile", `{"kb":"nope"}`), http.StatusNotFound, "admin_compile"},
		{"compile kb not live", raw("POST", "/v1/admin/compile", ""), http.StatusConflict, "admin_compile"},
		{"compile wrong method", raw("GET", "/v1/admin/compile", ""), http.StatusMethodNotAllowed, "admin_compile"},
		{"kb-scoped compile wrong method", raw("DELETE", "/v1/kb/"+DefaultKBName+"/admin/compile", ""), http.StatusMethodNotAllowed, "admin_compile"},
		// Unknown paths: JSON 404 under the not_found pseudo-endpoint.
		{"unknown path", raw("GET", "/v1/nope", ""), http.StatusNotFound, "not_found"},
		{"root path", raw("GET", "/", ""), http.StatusNotFound, "not_found"},
		{"deep unknown path", raw("POST", "/v1/kb/x/nope", ""), http.StatusNotFound, "not_found"},
	}

	wantCounts := map[string]*EndpointStats{}
	for _, tc := range cases {
		st := wantCounts[tc.endpoint]
		if st == nil {
			st = &EndpointStats{}
			wantCounts[tc.endpoint] = st
		}
		st.Requests++
		st.Errors++

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, tc.req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", tc.name, ct)
		}
		var er wire.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Errorf("%s: body is not an ErrorResponse: %q", tc.name, rec.Body.String())
		} else if er.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
		if rec.Code == http.StatusMethodNotAllowed && rec.Header().Get("Allow") == "" {
			t.Errorf("%s: 405 without an Allow header", tc.name)
		}
	}

	// Every case must be visible in the endpoint counters.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	st := decode[StatsResponse](t, rec)
	for name, want := range wantCounts {
		got := st.Endpoints[name]
		if name == "stats" {
			got.Requests-- // the readback itself
		}
		if got.Requests != want.Requests || got.Errors != want.Errors {
			t.Errorf("endpoint %q counters = %+v, want %+v", name, got, *want)
		}
	}
}

// TestMineTimeoutClamped: a request-supplied timeout above MaxTimeout is
// clamped (not rejected), an absent one picks the default, and an unbounded
// configuration is still capped by the ceiling.
func TestMineTimeoutClamped(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: time.Second, MaxTimeout: 2 * time.Second})
	cases := []struct {
		in   int64
		want int64
	}{
		{0, 1000},       // default
		{500, 500},      // under the ceiling: kept
		{3600000, 2000}, // clamped to MaxTimeout
	}
	for _, tc := range cases {
		q := wire.MineRequest{Targets: []string{tinyNS + "Paris"}, TimeoutMS: tc.in}
		if _, err := s.mineOptions(&q); err != nil {
			t.Fatalf("timeout %d: %v", tc.in, err)
		}
		if q.TimeoutMS != tc.want {
			t.Errorf("timeout %d clamped to %d, want %d", tc.in, q.TimeoutMS, tc.want)
		}
	}
	// No default, only a ceiling: unbounded requests are still capped.
	s2 := tinyServer(t, Options{MaxTimeout: time.Second})
	q := wire.MineRequest{Targets: []string{tinyNS + "Paris"}}
	if _, err := s2.mineOptions(&q); err != nil {
		t.Fatal(err)
	}
	if q.TimeoutMS != 1000 {
		t.Errorf("unbounded request got %dms, want the 1000ms ceiling", q.TimeoutMS)
	}
}

// TestSuccessResponsesAreJSON pins the happy-path Content-Type for every
// endpoint, completing the conformance picture.
func TestSuccessResponsesAreJSON(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	reqs := []*http.Request{
		newJSONRequest(t, "POST", "/v1/mine", wire.MineRequest{Targets: []string{tinyNS + "Paris"}}),
		newJSONRequest(t, "POST", "/v1/mine:batch", wire.MineRequest{Sets: [][]string{{tinyNS + "Paris"}}}),
		newJSONRequest(t, "POST", "/v1/summarize", wire.SummarizeRequest{Entity: tinyNS + "Paris"}),
		httptest.NewRequest("GET", "/v1/describe?entity="+tinyNS+"Paris", nil),
		httptest.NewRequest("GET", "/v1/stats", nil),
		httptest.NewRequest("GET", "/v1/kb/"+DefaultKBName+"/stats", nil),
		httptest.NewRequest("GET", "/healthz", nil),
		httptest.NewRequest("GET", "/readyz", nil),
	}
	for _, req := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", req.Method, req.URL.Path, ct)
		}
	}
}

// FuzzMineKey proves the dedup/cache key is injective over normalized
// requests: two requests that differ after normalization must never share a
// key (a collision would hand one caller another query's mining result),
// and requests equal after normalization must share one (or the dedup stops
// working). The fuzzer drives both target lists and every option field.
func FuzzMineKey(f *testing.F) {
	f.Add("a", "b", "a", "b", "fr", "fr", 0, 0, int64(0), int64(0), 0, 0, 0, 0)
	f.Add("a\nb", "", "a", "b", "fr", "pr", 1, 2, int64(5), int64(5), 1, 1, 0, 0)
	f.Add("x", "x", "x", "", "", "", 4, 4, int64(1000), int64(1000), 3, 3, 2, 2)
	f.Add("12:ab", "", "1", "2:ab", "fr", "fr", 0, 0, int64(0), int64(0), 0, 0, 0, 0)
	f.Fuzz(func(t *testing.T, t1a, t1b, t2a, t2b, m1, m2 string,
		w1, w2 int, to1, to2 int64, k1, k2, e1, e2 int) {

		q1 := wire.MineRequest{Targets: []string{t1a, t1b}, Metric: m1, Workers: w1, TimeoutMS: to1, TopK: k1, Exceptions: e1}
		q2 := wire.MineRequest{Targets: []string{t2a, t2b}, Metric: m2, Workers: w2, TimeoutMS: to2, TopK: k2, Exceptions: e2}
		q1.Normalize()
		q2.Normalize()
		same := reflect.DeepEqual(q1, q2)
		k1s, k2s := q1.Key(), q2.Key()
		if same && k1s != k2s {
			t.Fatalf("equal normalized requests got distinct keys:\n%q\n%q", k1s, k2s)
		}
		if !same && k1s == k2s {
			t.Fatalf("distinct normalized requests collide on key %q:\n%+v\n%+v", k1s, q1, q2)
		}
	})
}

// TestMineKeyLengthPrefix pins the specific collision the key format
// defends against: a crafted IRI embedding another target list.
func TestMineKeyLengthPrefix(t *testing.T) {
	a := wire.MineRequest{Targets: []string{"3:abc"}}
	b := wire.MineRequest{Targets: []string{"abc"}}
	a.Normalize()
	b.Normalize()
	if a.Key() == b.Key() {
		t.Fatal("length-prefix bypass: crafted IRI collides with plain target")
	}
	if !bytes.Contains([]byte(a.Key()), []byte("3:abc")) {
		t.Fatalf("unexpected key layout: %q", a.Key())
	}
}
