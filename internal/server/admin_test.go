package server

// Tests for the admin mutation plane: the facts/compile endpoints' HTTP
// semantics, their crash chaos (WAL sync failures, torn appends, compaction
// crashes must degrade exactly as documented — no acked loss, no
// quarantine, reads keep serving), and the generation machinery that makes
// a mutation invalidate stale cached answers.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/datagen"
	"github.com/remi-kb/remi/internal/faults"
	"github.com/remi-kb/remi/internal/wire"
)

const tinyOnt = "http://tiny.demo/ontology/"

// liveServer is tinyServer plus a live KB named "geo" backed by a WAL in a
// test temp dir, and a faults.Reset cleanup. The default KB stays non-live
// so the 409 paths are exercisable on the same server.
func liveServer(t *testing.T, opts Options) (*Server, *remi.LiveKB) {
	t.Helper()
	s := tinyServer(t, opts)
	t.Cleanup(faults.Reset)
	dir := t.TempDir()
	src := filepath.Join(dir, "src.nt")
	var buf []byte
	for _, tr := range datagen.TinyGeo().Triples {
		buf = append(buf, fmt.Sprintf("%s %s %s .\n", tr.S, tr.P, tr.O)...)
	}
	if err := os.WriteFile(src, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	live, err := remi.OpenLive(dir, "geo", remi.LiveOptions{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	if err := s.AddLiveKB("geo", live); err != nil {
		t.Fatal(err)
	}
	return s, live
}

func upsertJSON(s, p, o string) FactOp {
	return FactOp{S: "<" + s + ">", P: "<" + p + ">", O: "<" + o + ">"}
}

func liveKBStats(t *testing.T, h http.Handler, name string) KBInfo {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/kb/"+name+"/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body.String())
	}
	return decode[KBStatsResponse](t, rec).KBInfo
}

func TestFactsEndpointDurableAck(t *testing.T) {
	s, live := liveServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()

	body, _ := json.Marshal(FactsRequest{Ops: []FactOp{
		upsertJSON(tinyNS+"Atlantis", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", tinyOnt+"City"),
		upsertJSON(tinyNS+"Atlantis", tinyOnt+"in", tinyNS+"SouthAmerica"),
		{Op: "retract", S: "<" + tinyNS + "Rennes>", P: "<" + tinyOnt + "mayor>", O: "<" + tinyNS + "MayorRennes>"},
	}})
	req := httptest.NewRequest("POST", "/v1/kb/geo/facts", strings.NewReader(string(body)))
	req.Header.Set(wire.HeaderRequestID, "facts-req-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("facts: %d %s", rec.Code, rec.Body.String())
	}
	out := decode[FactsResponse](t, rec)
	if out.KB != "geo" || out.Applied != 3 || out.Changed != 3 {
		t.Fatalf("ack = %+v", out)
	}
	if out.RequestID != "facts-req-1" {
		t.Fatalf("request id not carried end to end: %q", out.RequestID)
	}
	if out.Generation != 1 || out.WalBytes == 0 || out.WalRecords != 1 {
		t.Fatalf("durability fields off: %+v", out)
	}
	// The ack implies the batch is on disk.
	if st := live.Stats(); st.WalRecords != 1 || st.FactsApplied != 3 {
		t.Fatalf("live stats after ack: %+v", st)
	}
	// Per-KB stats expose the live fields.
	info := liveKBStats(t, h, "geo")
	if !info.Live || info.FactsApplied != 3 || info.WalBytes == 0 || info.Generation != 1 {
		t.Fatalf("kb stats = %+v", info)
	}
	if info.PendingAdds == 0 || info.PendingDels != 1 {
		t.Fatalf("overlay sizing not surfaced: %+v", info)
	}
	// The new entity is immediately mineable on the swapped-in generation.
	rec = postJSON(t, h, "/v1/kb/geo/mine", wire.MineRequest{Targets: []string{tinyNS + "Atlantis"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("mine on mutated KB: %d %s", rec.Code, rec.Body.String())
	}
	// An idempotent re-send acks with changed=0 and a fresh generation.
	rec = postJSON(t, h, "/v1/kb/geo/facts", FactsRequest{Ops: []FactOp{
		upsertJSON(tinyNS+"Atlantis", tinyOnt+"in", tinyNS+"SouthAmerica"),
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("re-send: %d %s", rec.Code, rec.Body.String())
	}
	if out := decode[FactsResponse](t, rec); out.Changed != 0 || out.Applied != 1 || out.Generation != 2 {
		t.Fatalf("idempotent re-send ack = %+v", out)
	}
}

func TestFactsMutationInvalidatesCachedAnswers(t *testing.T) {
	s, _ := liveServer(t, Options{DefaultTimeout: 10 * time.Second, ResultCache: 64})
	h := s.Handler()
	targets := wire.MineRequest{Targets: []string{tinyNS + "Rennes"}}

	rec := postJSON(t, h, "/v1/kb/geo/mine", targets)
	if rec.Code != http.StatusOK {
		t.Fatalf("mine: %d %s", rec.Code, rec.Body.String())
	}
	before := decode[MineResponse](t, rec)
	if !before.Found {
		t.Fatalf("no RE for Rennes: %s", rec.Body.String())
	}
	// Warm the cache with a second identical query.
	postJSON(t, h, "/v1/kb/geo/mine", targets)

	// Give Nantes the same mayor: whatever discriminated Rennes via that
	// mayor is no longer a referring expression, so a cached answer would
	// now be wrong.
	rec = postJSON(t, h, "/v1/kb/geo/facts", FactsRequest{Ops: []FactOp{
		upsertJSON(tinyNS+"Nantes", tinyOnt+"mayor", tinyNS+"MayorRennes"),
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("facts: %d %s", rec.Code, rec.Body.String())
	}
	rec = postJSON(t, h, "/v1/kb/geo/mine", targets)
	if rec.Code != http.StatusOK {
		t.Fatalf("mine after mutation: %d %s", rec.Code, rec.Body.String())
	}
	after := decode[MineResponse](t, rec)
	if after.Found && after.Solution != nil && before.Solution != nil &&
		after.Solution.Expression == before.Solution.Expression {
		t.Fatalf("stale expression served after mutation: %q", after.Solution.Expression)
	}
}

func TestFactsValidationErrors(t *testing.T) {
	s, _ := liveServer(t, Options{})
	h := s.Handler()

	// Terms stay minimal so the batch clears the byte cap and exercises the
	// op-count cap specifically.
	tooMany := FactsRequest{Ops: make([]FactOp, maxFactOps+1)}
	for i := range tooMany.Ops {
		tooMany.Ops[i] = FactOp{S: "<a:s>", P: "<a:p>", O: "<a:o>"}
	}
	tooManyBody, _ := json.Marshal(tooMany)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", "{not json", http.StatusBadRequest},
		{"empty ops", `{"ops":[]}`, http.StatusBadRequest},
		{"unknown verb", `{"ops":[{"op":"replace","s":"<a:s>","p":"<a:p>","o":"<a:o>"}]}`, http.StatusBadRequest},
		{"unparsable term", `{"ops":[{"s":"not a term","p":"<a:p>","o":"<a:o>"}]}`, http.StatusBadRequest},
		{"literal subject", `{"ops":[{"s":"\"lit\"","p":"<a:p>","o":"<a:o>"}]}`, http.StatusBadRequest},
		{"literal predicate", `{"ops":[{"s":"<a:s>","p":"\"p\"","o":"<a:o>"}]}`, http.StatusBadRequest},
		{"inverse predicate", `{"ops":[{"s":"<a:s>","p":"<` + tinyOnt + `capital` + "⁻¹" + `>","o":"<a:o>"}]}`, http.StatusBadRequest},
		{"batch cap", string(tooManyBody), http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("POST", "/v1/kb/geo/facts", strings.NewReader(tc.body))
		req.Header.Set(wire.HeaderRequestID, "vreq-"+tc.name)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
			continue
		}
		er := decode[wire.ErrorResponse](t, rec)
		if er.Error == "" || er.RequestID != "vreq-"+tc.name {
			t.Errorf("%s: error envelope = %+v", tc.name, er)
		}
	}
	// A rejected batch must leave no durable or visible trace.
	if info := liveKBStats(t, h, "geo"); info.FactsApplied != 0 || info.WalRecords != 0 || info.Generation != 0 {
		t.Fatalf("rejected batches left state: %+v", info)
	}
}

func TestCompileEndpoint(t *testing.T) {
	s, live := liveServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()

	rec := postJSON(t, h, "/v1/kb/geo/facts", FactsRequest{Ops: []FactOp{
		upsertJSON(tinyNS+"Atlantis", tinyOnt+"in", tinyNS+"SouthAmerica"),
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("facts: %d %s", rec.Code, rec.Body.String())
	}

	req := httptest.NewRequest("POST", "/v1/kb/geo/admin/compile", nil)
	req.Header.Set(wire.HeaderRequestID, "compile-req-1")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("compile: %d %s", rec.Code, rec.Body.String())
	}
	out := decode[CompileResponse](t, rec)
	if out.KB != "geo" || out.Compactions != 1 || out.WalBytes != 0 || out.RequestID != "compile-req-1" {
		t.Fatalf("compile ack = %+v", out)
	}
	info := liveKBStats(t, h, "geo")
	if info.LastCompactionGeneration != info.Generation || info.Generation != out.Generation {
		t.Fatalf("compaction generation not recorded: %+v", info)
	}
	if info.WalRecords != 0 || info.PendingAdds != 0 {
		t.Fatalf("WAL/overlay not folded: %+v", info)
	}
	if st := live.Stats(); st.Compactions != 1 {
		t.Fatalf("live stats: %+v", st)
	}
	// The compacted generation still answers the mutated facts.
	rec = postJSON(t, h, "/v1/kb/geo/mine", wire.MineRequest{Targets: []string{tinyNS + "Guyana"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("mine after compile: %d %s", rec.Code, rec.Body.String())
	}
	// The body form routes too.
	rec = postJSON(t, h, "/v1/admin/compile", CompileRequest{KB: "geo"})
	if rec.Code != http.StatusOK {
		t.Fatalf("compile by body: %d %s", rec.Code, rec.Body.String())
	}
	if out := decode[CompileResponse](t, rec); out.Compactions != 2 {
		t.Fatalf("second compile ack = %+v", out)
	}
}

// TestCompileKeepsCacheAndServingSystem: compaction is a write, not a
// reload. The System serving the facts' generation keeps serving after a
// compile, its generation does not move, and the result cache it filled
// still answers.
func TestCompileKeepsCacheAndServingSystem(t *testing.T) {
	s, _ := liveServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	rec := postJSON(t, h, "/v1/kb/geo/facts", FactsRequest{Ops: []FactOp{
		upsertJSON(tinyNS+"Atlantis", tinyOnt+"in", tinyNS+"SouthAmerica"),
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("facts: %d %s", rec.Code, rec.Body.String())
	}
	facts := decode[FactsResponse](t, rec)
	mine := wire.MineRequest{Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"}}
	if rec := postJSON(t, h, "/v1/kb/geo/mine", mine); rec.Code != http.StatusOK {
		t.Fatalf("mine: %d %s", rec.Code, rec.Body.String())
	}
	rec = postJSON(t, h, "/v1/kb/geo/admin/compile", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("compile: %d %s", rec.Code, rec.Body.String())
	}
	if out := decode[CompileResponse](t, rec); out.Generation != facts.Generation {
		t.Fatalf("compile generation %d, want the facts' %d", out.Generation, facts.Generation)
	}
	rec = postJSON(t, h, "/v1/kb/geo/mine", mine)
	if rec.Code != http.StatusOK {
		t.Fatalf("mine after compile: %d %s", rec.Code, rec.Body.String())
	}
	if !decode[MineResponse](t, rec).Cached {
		t.Fatal("compile invalidated the result cache")
	}
	rec = postJSON(t, h, "/v1/kb/geo/mine", wire.MineRequest{Targets: []string{tinyNS + "Atlantis"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("mining the minted entity after compile: %d %s", rec.Code, rec.Body.String())
	}
}

func TestCompileWhileCompacting(t *testing.T) {
	s, _ := liveServer(t, Options{})
	h := s.Handler()
	base := faults.Hits(faults.CompactCrash)

	// Park the first compile inside compaction's critical window, then race
	// a second one against it.
	disarm := faults.Arm(faults.CompactCrash, faults.Injection{Block: true})
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/kb/geo/admin/compile", nil))
		first <- rec
	}()
	deadline := time.Now().Add(5 * time.Second)
	for faults.Hits(faults.CompactCrash) == base {
		if time.Now().After(deadline) {
			disarm()
			t.Fatal("first compile never reached the fault point")
		}
		time.Sleep(time.Millisecond)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/kb/geo/admin/compile", nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("concurrent compile: %d, want 409 (%s)", rec.Code, rec.Body.String())
	}
	if er := decode[wire.ErrorResponse](t, rec); er.Error == "" {
		t.Fatal("409 without an error body")
	}
	disarm()
	if rec := <-first; rec.Code != http.StatusOK {
		t.Fatalf("parked compile: %d %s", rec.Code, rec.Body.String())
	}
}

func TestFactsChaosWalSyncFailure(t *testing.T) {
	s, _ := liveServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	ops := FactsRequest{Ops: []FactOp{upsertJSON(tinyNS+"Atlantis", tinyOnt+"in", tinyNS+"SouthAmerica")}}

	disarm := faults.Arm(faults.WalSync, faults.Injection{Err: fmt.Errorf("injected: disk full")})
	rec := postJSON(t, h, "/v1/kb/geo/facts", ops)
	disarm()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unsynced batch: %d, want 500 (%s)", rec.Code, rec.Body.String())
	}
	// Nothing was acknowledged: no generation bump, no applied count, and
	// the entity stays unknown to mining.
	info := liveKBStats(t, h, "geo")
	if info.Generation != 0 || info.FactsApplied != 0 {
		t.Fatalf("failed sync leaked state: %+v", info)
	}
	rec = postJSON(t, h, "/v1/kb/geo/mine", wire.MineRequest{Targets: []string{tinyNS + "Atlantis"}})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unacked fact visible to mining: %d", rec.Code)
	}
	// The log survives a sync failure: the client retry succeeds.
	rec = postJSON(t, h, "/v1/kb/geo/facts", ops)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry: %d %s", rec.Code, rec.Body.String())
	}
}

func TestFactsChaosTornAppend(t *testing.T) {
	s, _ := liveServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	ops := FactsRequest{Ops: []FactOp{upsertJSON(tinyNS+"Atlantis", tinyOnt+"in", tinyNS+"SouthAmerica")}}

	disarm := faults.Arm(faults.WalTorn, faults.Injection{Err: fmt.Errorf("injected: power loss")})
	rec := postJSON(t, h, "/v1/kb/geo/facts", ops)
	disarm()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("torn append: %d, want 500 (%s)", rec.Code, rec.Body.String())
	}
	// The log handle is failed — further mutations are refused — but the
	// read path keeps serving and the KB is not quarantined.
	rec = postJSON(t, h, "/v1/kb/geo/facts", ops)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("append on failed log: %d, want 500", rec.Code)
	}
	rec = postJSON(t, h, "/v1/kb/geo/mine", wire.MineRequest{Targets: []string{tinyNS + "Rennes"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("read path degraded by torn WAL: %d %s", rec.Code, rec.Body.String())
	}
	if info := liveKBStats(t, h, "geo"); info.QuarantinedForMS != 0 || info.ReloadFailures != 0 {
		t.Fatalf("torn WAL conflated with reload quarantine: %+v", info)
	}
}

func TestCompileChaosCrashContainment(t *testing.T) {
	s, live := liveServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	rec := postJSON(t, h, "/v1/kb/geo/facts", FactsRequest{Ops: []FactOp{
		upsertJSON(tinyNS+"Atlantis", tinyOnt+"in", tinyNS+"SouthAmerica"),
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("facts: %d %s", rec.Code, rec.Body.String())
	}

	disarm := faults.Arm(faults.CompactCrash, faults.Injection{Err: fmt.Errorf("injected: killed mid-compaction")})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/kb/geo/admin/compile", nil))
	disarm()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("crashed compile: %d, want 500 (%s)", rec.Code, rec.Body.String())
	}
	// Containment: the WAL still holds the acked batch, the serving
	// generation is unchanged, mutations still work, and the KB is not
	// quarantined (a compaction crash is not a source failure).
	info := liveKBStats(t, h, "geo")
	if info.WalRecords != 1 || info.Generation != 1 || info.LastCompactionGeneration != 0 {
		t.Fatalf("crashed compile mutated state: %+v", info)
	}
	if info.QuarantinedForMS != 0 || info.ReloadFailures != 0 {
		t.Fatalf("compaction crash quarantined the KB: %+v", info)
	}
	if st := live.Stats(); st.Compactions != 0 {
		t.Fatalf("compaction counted despite crash: %+v", st)
	}
	rec2 := postJSON(t, h, "/v1/kb/geo/mine", wire.MineRequest{Targets: []string{tinyNS + "Atlantis"}})
	if rec2.Code != http.StatusOK {
		t.Fatalf("acked fact lost after compile crash: %d %s", rec2.Code, rec2.Body.String())
	}
	// With the fault gone, the next compile succeeds outright.
	rec2 = httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest("POST", "/v1/kb/geo/admin/compile", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("compile after crash: %d %s", rec2.Code, rec2.Body.String())
	}
}

// TestSwapsKeepServingGeneration: each write closes the generation it
// replaced (nothing reads it), never the one it swapped in.
func TestSwapsKeepServingGeneration(t *testing.T) {
	s, _ := liveServer(t, Options{DefaultTimeout: 10 * time.Second})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		rec := postJSON(t, h, "/v1/kb/geo/facts", FactsRequest{Ops: []FactOp{
			upsertJSON(tinyNS+"Atlantis", tinyOnt+fmt.Sprintf("p%d", i), tinyNS+"SouthAmerica"),
		}})
		if rec.Code != http.StatusOK {
			t.Fatalf("facts %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := postJSON(t, h, "/v1/kb/geo/mine", wire.MineRequest{Targets: []string{tinyNS + "Rennes"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("serving generation broken after swaps: %d %s", rec.Code, rec.Body.String())
	}
	if info := liveKBStats(t, h, "geo"); info.Generation != 3 {
		t.Fatalf("generation = %d, want 3", info.Generation)
	}
}
