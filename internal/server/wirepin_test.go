package server

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// volatileField matches the values that differ between runs of one build:
// phase timings, unix-ns stamps, job ids and uptime.
var volatileField = regexp.MustCompile(
	`"(queue_build_ms|search_ms|avg_run_ms|created_unix_ns|started_unix_ns|finished_unix_ns|last_run_unix_ns|uptime_seconds|id)":("[^"]*"|[-+0-9.eE]+)`)

// masked is a response body with its volatile values replaced by "*"; key
// order and every other value stay as they were written.
func masked(body string) string {
	return volatileField.ReplaceAllString(strings.TrimSpace(body), `"$1":"*"`)
}

// TestWirePin pins the bytes of four documents — key order and values,
// with only the volatile fields masked — so a change to the types behind
// them cannot change what a client reads: a found /v1/mine response with
// alternatives, a /v1/mine:batch response with one repeat and one invalid
// set, a finished async job document, and the /v1/stats jobs block. The
// bodies are raw JSON so the test depends on no request type.
func TestWirePin(t *testing.T) {
	s := tinyServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	serve := func(method, path, body string, want int) string {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("X-Request-Id", "pin")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body.String())
		}
		return rec.Body.String()
	}
	check := func(name, got, want string) {
		t.Helper()
		if got = masked(got); got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}

	check("mine", serve("POST", "/v1/mine",
		`{"targets":["`+tinyNS+`Rennes","`+tinyNS+`Nantes"],"top_k":2}`, http.StatusOK), `{"found":true,"solution":{"expression":"belongedTo(x, Brittany)","subgraphs":["belongedTo(x, Brittany)"],"nl":"x is the entity such that the belonged to of x is Brittany","sparql":"SELECT DISTINCT ?x WHERE {\n  ?x <http://tiny.demo/ontology/belongedTo> <http://tiny.demo/resource/Brittany> .\n}","bits":3.9068905956085187,"atoms":1},"alternatives":[{"expression":"type(x, City) ∧ belongedTo(x, Brittany)","subgraphs":["type(x, City)","belongedTo(x, Brittany)"],"nl":"x is the entity such that the type of x is City, and the belonged to of x is Brittany","sparql":"SELECT DISTINCT ?x WHERE {\n  ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://tiny.demo/ontology/City> .\n  ?x <http://tiny.demo/ontology/belongedTo> <http://tiny.demo/resource/Brittany> .\n}","bits":4.12012479873539,"atoms":2}],"stats":{"candidates":7,"queue_build_ms":"*","search_ms":"*","visited":7,"re_tests":7,"timed_out":false,"cache_hits":6,"cache_misses":5}}`)

	check("batch", serve("POST", "/v1/mine:batch",
		`{"sets":[["`+tinyNS+`Guyana","`+tinyNS+`Suriname"],["`+tinyNS+`Suriname","`+tinyNS+`Guyana"],[]]}`,
		http.StatusOK), `{"kb":"default","results":[{"response":{"found":true,"solution":{"expression":"in(x, SouthAmerica) ∧ officialLanguage(x, y) ∧ langFamily(y, Germanic)","subgraphs":["in(x, SouthAmerica)","officialLanguage(x, y) ∧ langFamily(y, Germanic)"],"nl":"x is the entity such that the in of x is SouthAmerica, and the official language of x has lang family Germanic","sparql":"SELECT DISTINCT ?x WHERE {\n  ?x <http://tiny.demo/ontology/in> <http://tiny.demo/resource/SouthAmerica> .\n  ?x <http://tiny.demo/ontology/officialLanguage> ?y1 .\n  ?y1 <http://tiny.demo/ontology/langFamily> <http://tiny.demo/resource/Germanic> .\n}","bits":7.4918530963296766,"atoms":3},"stats":{"candidates":6,"queue_build_ms":"*","search_ms":"*","visited":8,"re_tests":8,"timed_out":false,"cache_hits":19,"cache_misses":6}}},{"response":{"found":true,"solution":{"expression":"in(x, SouthAmerica) ∧ officialLanguage(x, y) ∧ langFamily(y, Germanic)","subgraphs":["in(x, SouthAmerica)","officialLanguage(x, y) ∧ langFamily(y, Germanic)"],"nl":"x is the entity such that the in of x is SouthAmerica, and the official language of x has lang family Germanic","sparql":"SELECT DISTINCT ?x WHERE {\n  ?x <http://tiny.demo/ontology/in> <http://tiny.demo/resource/SouthAmerica> .\n  ?x <http://tiny.demo/ontology/officialLanguage> ?y1 .\n  ?y1 <http://tiny.demo/ontology/langFamily> <http://tiny.demo/resource/Germanic> .\n}","bits":7.4918530963296766,"atoms":3},"stats":{"candidates":6,"queue_build_ms":"*","search_ms":"*","visited":8,"re_tests":8,"timed_out":false,"cache_hits":19,"cache_misses":6},"deduplicated":true}},{"error":"targets is required","status":400}],"stats":{"sets":3,"mined":1,"deduplicated":1,"cached":0,"errors":1,"queue_build_ms":"*","search_ms":"*","cache_hits":19,"cache_misses":6}}`)

	sub := serve("POST", "/v1/mine:async", `{"targets":["`+tinyNS+`Paris"]}`, http.StatusAccepted)
	id := regexp.MustCompile(`"id":"([^"]+)"`).FindStringSubmatch(sub)[1]
	var job string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if job = serve("GET", "/v1/jobs/"+id, "", http.StatusOK); strings.Contains(job, `"state":"done"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %s", id, job)
		}
	}
	check("job", job, `{"id":"*","state":"done","kind":"mine","kb":"default","request_id":"pin","created_unix_ns":"*","started_unix_ns":"*","finished_unix_ns":"*","result":{"found":true,"solution":{"expression":"capital⁻¹(x, France)","subgraphs":["capital⁻¹(x, France)"],"nl":"x is the entity such that x is the capital of France","sparql":"SELECT DISTINCT ?x WHERE {\n  <http://tiny.demo/resource/France> <http://tiny.demo/ontology/capital> ?x .\n}","bits":4.247927513443585,"atoms":1},"stats":{"candidates":13,"queue_build_ms":"*","search_ms":"*","visited":6,"re_tests":6,"timed_out":false,"cache_hits":4,"cache_misses":5}}}`)

	stats := serve("GET", "/v1/stats", "", http.StatusOK)
	check("stats jobs", regexp.MustCompile(`"jobs":\{"workers":[^}]*\}`).FindString(stats), `"jobs":{"workers":4,"queue_capacity":64,"queued":0,"running":0,"tracked":1,"submitted":3,"external":0,"joined":0,"rejected":0,"completed":3,"failed":0,"cancelled":0,"expired":0,"avg_run_ms":"*"}`)
}
