package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/remi-kb/remi/internal/server"
	"github.com/remi-kb/remi/internal/wire"
)

// tierPair is one replica reached two ways: directly through its handler,
// and through a router whose only replica it is.
type tierPair struct {
	replica http.Handler
	router  *Router
}

func newTierPair(t testing.TB) tierPair {
	srv := server.New(tinySystem(t), server.Options{DefaultTimeout: 10 * time.Second})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	rt, err := New([]Replica{{Name: "r1", URL: ts.URL}}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	return tierPair{replica: h, router: rt}
}

// goNames are fragments of Go's own decode errors — struct fields and Go
// types — that no answer of either tier may carry.
var goNames = []string{"Go struct", "Go value", "[]string", "int64", "MineRequest", "SummarizeRequest",
	"FactsRequest", "CompileRequest", "opJSON", "delta.", "wire.", "server."}

// agree posts body to path on both tiers and fails unless they answer the
// same status with the same error text, none naming a Go type. It returns
// the router's answer.
func (p tierPair) agree(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	answer := func(h http.Handler) (*httptest.ResponseRecorder, int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(string(body))))
		var er wire.ErrorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &er)
		return rec, rec.Code, er.Error
	}
	_, dStatus, dErr := answer(p.replica)
	routed, rStatus, rErr := answer(p.router)
	if dStatus != rStatus || dErr != rErr {
		t.Fatalf("POST %s %q: replica %d %q, router %d %q", path, body, dStatus, dErr, rStatus, rErr)
	}
	for _, name := range goNames {
		if strings.Contains(dErr, name) {
			t.Fatalf("POST %s %q: the error %q names Go's %q", path, body, dErr, name)
		}
	}
	return routed
}

// tierRows are bodies the two tiers once answered apart — a field the
// endpoint does not read but the router did, bytes after the JSON value —
// plus the body cap, an empty body and a wrong-typed field on each path.
var tierRows = []struct{ path, body string }{
	{"/v1/mine", `{"targets":["x"],"entity":5}`},
	{"/v1/summarize", `{"entity":"e","targets":5}`},
	{"/v1/mine", `{"targets":["x"]} x`},
	{"/v1/facts", `{"ops":[],"sets":5}`},
	{"/v1/mine:batch", `{"sets":[["x"]],"targets":5}`},
	{"/v1/mine", `{"targets":["x"],"sets":5}`},
	{"/v1/mine", `{"targets":["` + strings.Repeat("a", wire.MaxBodyBytes+1-len(`{"targets":[""]}`)) + `"]}`},
	{"/v1/mine", ``},
	{"/v1/mine:batch", `[]`},
	{"/v1/summarize", `{"entity":"e","size":"3"}`},
	{"/v1/summarize", ``},
	{"/v1/facts", ``},
	{"/v1/facts", `{"ops":[{"s":5}],"kb":7}`},
	{"/v1/facts", `{"ops":[{"op":"move","s":"<a>","p":"<b>","o":"<c>"}],"kb":7}`},
	{"/v1/facts", `{"kb":7,"ops":[{"s":"<a>","p":"<b>","o":"<c>"}]}`},
	{"/v1/facts", `{"ops":["x"]}`},
}

// FuzzTiersAgreeOnBodies holds routed ≡ direct on any bytes posted to the
// mining, summarize and facts paths.
//
//	go test -run '^$' -fuzz '^FuzzTiersAgreeOnBodies$' -fuzztime 10s ./internal/cluster
func FuzzTiersAgreeOnBodies(f *testing.F) {
	paths := []string{"/v1/mine", "/v1/mine:batch", "/v1/summarize", "/v1/facts"}
	for _, row := range tierRows {
		if len(row.body) <= 4096 {
			f.Add(uint8(slices.Index(paths, row.path)), []byte(row.body))
		}
	}
	p := newTierPair(f)
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		p.agree(t, paths[int(path)%len(paths)], body)
	})
}
