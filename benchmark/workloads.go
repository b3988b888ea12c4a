package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/kb"
	"github.com/remi-kb/remi/internal/rdf"
)

// workload describes one entry of BENCHMARK.json: the input it needs and the
// function that measures it inside a _workload child.
type workload struct {
	name   string
	scale  float64
	sets   int
	cycles bool // needs live_mixed's mutation batches
	run    func(env) (*report, error)
}

var workloads = []workload{
	{name: "mine_unique", scale: mineScale, sets: mineSets, run: runMineUnique},
	{name: "serve_zipf", scale: mineScale, sets: mineSets, run: runServeZipf},
	{name: "kb_cold_start", scale: kbScale, sets: kbSets, run: runColdStart},
	{name: "live_mixed", scale: kbScale, sets: kbSets, cycles: true, run: runLiveMixed},
}

// Quick mode exercises every code path on a toy input; its numbers mean
// nothing and are not printed as metrics.
const (
	quickScale = 0.25
	quickSets  = 96
)

// env is what the orchestrator tells a _workload child.
type env struct {
	dir     string    // generated inputs; scratch space
	binDir  string    // remi-serve and remi-router
	seed    int64     // draws orders, key sequences, probes and mutations
	seconds float64   // measuring time asked for
	t0      time.Time // when the orchestrator started setting up
	quick   bool
}

// passSeconds is the floor on one timed pass.
func (e env) passSeconds() float64 { return e.seconds / timedPasses }

func (e env) passes() int {
	if e.quick {
		return 1
	}
	return timedPasses
}

// serveRequests is serve_zipf's fixed pass length: 2,000 requests per second
// asked for (10,000 at the default), ~0.5 ms each through the router.
func (e env) serveRequests() int {
	if e.quick {
		return 400
	}
	return int(2000 * e.passSeconds())
}

// coldOps is kb_cold_start's fixed op count: forty per fifteen seconds, and
// never fewer, because forty is what gives the p75 ten samples beyond it.
func (e env) coldOps() int {
	if e.quick {
		return 3
	}
	return max(4*tailSamples, int(e.seconds*8/3))
}

// liveCycles is live_mixed's fixed op count: whole compaction gaps, so that
// exactly one op in compactGap compacts, and at least tailSamples+2 of them
// (sixty cycles at fifteen seconds), so that the ten samples beyond the tail
// percentile are all compaction cycles and the tail is one too: see
// runLiveMixed.
func (e env) liveCycles() int {
	if e.quick {
		return compactGap
	}
	return compactGap * max(tailSamples+2, int(e.seconds*4/5))
}

func (e env) setupSeconds() metric { return metric{time.Since(e.t0).Seconds(), "s"} }

// selfRSS is this process's peak resident set in MB.
func selfRSS() (float64, error) { return procHWM(os.Getpid()) }

// --- mine_unique -----------------------------------------------------------

// runMineUnique mines the canonical sets in process on the opened snapshot:
// nothing but the miner and the facade runs. A pass is whole traversals of
// the set list; the facade builds a miner per call, so a repeat is as cold
// as a first visit.
func runMineUnique(e env) (*report, error) {
	c, err := loadCanon(e.dir)
	if err != nil {
		return nil, err
	}
	sys, err := remi.Load(snapPath(e.dir))
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	r := newReport("mine_unique")
	ctx := context.Background()
	walk := order(e.seed, len(c.Sets))
	op := func(i int) {
		k := walk[i%len(walk)]
		res, err := sys.MineContext(ctx, c.Sets[k], remi.WithTimeout(mineTimeout))
		switch {
		case err != nil:
			r.fail("set %d: %v", k, err)
		case res.Stats.TimedOut:
			r.fail("set %d: timed out", k)
		case answerOf(res) != c.Answers[k]:
			r.fail("set %d: got %+v, want %+v", k, answerOf(res), c.Answers[k])
		}
	}
	warm := timePass(len(c.Sets), selfCPU, op)
	traversals := 1
	if !e.quick {
		traversals = max(1, int(math.Ceil(e.passSeconds()/warm.wall.Seconds())))
	}
	r.Metrics["setup_s"] = e.setupSeconds()
	passes := make([]pass, e.passes())
	for i := range passes {
		passes[i] = timePass(traversals*len(c.Sets), selfCPU, op)
	}
	rss, err := selfRSS()
	if err != nil {
		return nil, err
	}
	r.summarize(passes, rss)
	r.Notes = append(r.Notes, fmt.Sprintf("%d traversals of %d sets per pass", traversals, len(c.Sets)))
	r.Digest = c.Digest
	return r, nil
}

// --- serve_zipf ------------------------------------------------------------

// mineReply is the part of the server's /v1/mine response that is checked.
type mineReply struct {
	Found    bool `json:"found"`
	Solution *struct {
		Expression string  `json:"expression"`
		Bits       float64 `json:"bits"`
	} `json:"solution"`
	Stats struct {
		TimedOut bool `json:"timed_out"`
	} `json:"stats"`
	Cached bool `json:"cached"`
}

func (m *mineReply) answer() answer {
	if m.Solution == nil {
		return answer{Found: m.Found}
	}
	return answer{Found: m.Found, Bits: m.Solution.Bits, Expr: m.Solution.Expression}
}

// caller is the single closed-loop client: one keep-alive connection, the
// next request only after the previous reply.
type caller struct {
	client *http.Client
	bodies [][]byte // one prepared POST body per canonical set
	buf    bytes.Buffer
}

func newCaller(c *canon) (*caller, error) {
	cl := &caller{client: &http.Client{
		Timeout:   2 * mineTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
	for _, set := range c.Sets {
		b, err := json.Marshal(map[string]any{"targets": set})
		if err != nil {
			return nil, err
		}
		cl.bodies = append(cl.bodies, b)
	}
	return cl, nil
}

// mine posts set k to base and decodes the reply.
func (cl *caller) mine(base string, k int) (*mineReply, error) {
	resp, err := cl.client.Post(base+"/v1/mine", "application/json", bytes.NewReader(cl.bodies[k]))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	cl.buf.Reset()
	if _, err := io.Copy(&cl.buf, resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, cl.buf.Bytes())
	}
	var m mineReply
	if err := json.Unmarshal(cl.buf.Bytes(), &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// check posts set k and fails the op unless the reply is the reference
// answer; it reports whether the result cache answered.
func (cl *caller) check(r *report, c *canon, base string, k int) (cached bool) {
	m, err := cl.mine(base, k)
	switch {
	case err != nil:
		r.fail("set %d: %v", k, err)
		return false
	case m.Stats.TimedOut:
		r.fail("set %d: timed out", k)
	case m.answer() != c.Answers[k]:
		r.fail("set %d: got %+v, want %+v", k, m.answer(), c.Answers[k])
	}
	return m.Cached
}

// fleet is one replica behind one router, both real processes with default
// flags.
type fleet struct{ replica, router *daemon }

func startFleet(e env) (*fleet, error) {
	replica, err := startDaemon(filepath.Join(e.binDir, "remi-serve"), "/readyz", "-kb", snapPath(e.dir))
	if err != nil {
		return nil, err
	}
	router, err := startDaemon(filepath.Join(e.binDir, "remi-router"), "/readyz", "-replica", replica.url)
	if err != nil {
		replica.stop()
		return nil, err
	}
	return &fleet{replica, router}, nil
}

func (f *fleet) stop() { f.router.stop(); f.replica.stop() }

// cpu is the CPU time both processes have used so far.
func (f *fleet) cpu() time.Duration {
	a, err1 := procCPU(f.replica.pid())
	b, err2 := procCPU(f.router.pid())
	if err1 != nil || err2 != nil {
		return 0
	}
	return a + b
}

func (f *fleet) rss() (float64, error) {
	a, err1 := procHWM(f.replica.pid())
	b, err2 := procHWM(f.router.pid())
	return a + b, errors.Join(err1, err2)
}

// runServeZipf sends a Zipf-keyed request sequence through the router to one
// replica. The key space (4,096 sets) is larger than the replica's result
// cache (1,024), so most requests are cache hits and the rest mine: the
// median is the HTTP path and the router hop, the tail is mining. Every pass
// replays the same sequence, and the warm-up is that sequence too, so every
// timed pass starts from the cache state the sequence itself leaves behind.
func runServeZipf(e env) (*report, error) {
	c, err := loadCanon(e.dir)
	if err != nil {
		return nil, err
	}
	cl, err := newCaller(c)
	if err != nil {
		return nil, err
	}
	f, err := startFleet(e)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	r := newReport("serve_zipf")
	keys := zipfKeys(e.seed, len(c.Sets), e.serveRequests())
	hits := 0
	op := func(i int) {
		if cl.check(r, c, f.router.url, keys[i]) {
			hits++
		}
	}
	timePass(len(keys), f.cpu, op)
	r.Metrics["setup_s"] = e.setupSeconds()
	hits = 0
	passes := make([]pass, e.passes())
	for i := range passes {
		passes[i] = timePass(len(keys), f.cpu, op)
	}
	rss, err := f.rss()
	if err != nil {
		return nil, err
	}
	r.summarize(passes, rss)
	r.Notes = append(r.Notes, fmt.Sprintf("result-cache hit share %.4f", float64(hits)/float64(len(keys)*len(passes))))
	r.Digest = c.Digest
	return r, nil
}

// --- kb_cold_start ---------------------------------------------------------

// compileKB is the _compile child: N-Triples dump → streamed build →
// snapshot file.
func compileKB(dump, snap string) error {
	f, err := os.Open(dump)
	if err != nil {
		return err
	}
	defer f.Close()
	k, err := kb.BuildStreaming(rdf.NewReader(f), kb.DefaultOptions())
	if err != nil {
		return err
	}
	return k.WriteSnapshotFile(snap)
}

// probes are the seed's probeSets sets of c with their reference answers.
func probes(c *canon, seed int64) (sets [][]string, answers []answer) {
	for _, k := range order(seed, len(c.Sets))[:probeSets] {
		sets = append(sets, c.Sets[k])
		answers = append(answers, c.Answers[k])
	}
	return sets, answers
}

// replicaAnswers is the _replica child: open the snapshot as a server would
// and answer the seed's probe sets.
func replicaAnswers(snap, canonFile string, seed int64) ([]answer, error) {
	var c canon
	if err := readJSON(canonFile, &c); err != nil {
		return nil, err
	}
	sys, err := remi.Load(snap)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sets, _ := probes(&c, seed)
	return mineAnswers(sys, sets)
}

// runColdStart times the KB path from dump to first answers: one op is a
// _compile child followed by a _replica child, each a fresh process, so
// nothing is warm but the page cache.
func runColdStart(e env) (*report, error) {
	c, err := loadCanon(e.dir)
	if err != nil {
		return nil, err
	}
	r := newReport("kb_cold_start")
	asked, want := probes(c, e.seed)
	snap := filepath.Join(e.dir, "cold.snap")
	var cpu time.Duration
	var rss []float64
	op := func(i int) {
		defer os.Remove(snap)
		_, compiled, err := runChild("_compile", dumpPath(e.dir), snap)
		if err != nil {
			r.fail("op %d: %v", i, err)
			return
		}
		out, served, err := runChild("_replica", "-seed", fmt.Sprint(e.seed), snap, canonPath(e.dir))
		if err != nil {
			r.fail("op %d: %v", i, err)
			return
		}
		var got []answer
		if err := json.Unmarshal(out, &got); err != nil {
			r.fail("op %d: %v", i, err)
			return
		}
		if !slices.Equal(got, want) {
			r.fail("op %d: got %+v, want %+v", i, got, want)
		}
		cpu += cpuOf(compiled) + cpuOf(served)
		rss = append(rss, rssOf(compiled)+rssOf(served))
	}
	timePass(3, selfCPU, op)
	r.Metrics["setup_s"] = e.setupSeconds()
	cpu, rss = 0, nil
	p := timePass(e.coldOps(), func() time.Duration { return cpu }, op)
	r.summarize([]pass{p}, median(rss))
	r.Digest = digest(asked, want)
	return r, nil
}

// --- live_mixed ------------------------------------------------------------

// runLiveMixed writes beside reads on a live KB: one op is an Apply of
// liveOps mutations (acknowledged after the WAL fsync, the only flush policy
// the WAL has) followed by liveReads Mine calls on the generation Apply
// returned; every compactGap-th cycle also compacts.
//
// A compaction cycle costs twice a plain one, so the op latencies have two
// levels. liveCycles sizes the pass so that more than tailSamples ops compact:
// the tail percentile (p83.3 of 60) then lies on the upper level — it is the
// second-cheapest of twelve compaction cycles — and the median in the middle
// of the lower one. Neither is at the edge of its level, where a few ops the
// host delayed would carry it across (README.md has the measurements).
//
// The mutations touch real predicates, so answers drift away from the
// reference as cycles pass. What is checked is therefore the equivalences
// the live layer promises: the unpatched generation gives the reference
// answers; the last patched generation gives the answers of its own
// compacted snapshot opened flat; and a copy of the snapshot and the WAL,
// taken without closing anything, recovers to the live generation's answers.
func runLiveMixed(e env) (*report, error) {
	c, err := loadCanon(e.dir)
	if err != nil {
		return nil, err
	}
	r := newReport("live_mixed")
	ctx := context.Background()
	liveDir := filepath.Join(e.dir, "live")
	l, err := remi.OpenLive(liveDir, "canon", remi.LiveOptions{Source: snapPath(e.dir)})
	if err != nil {
		return nil, err
	}
	defer l.Close()

	gen := l.System()
	if got, err := mineAnswers(gen, c.Sets); err != nil {
		r.fail("unpatched generation: %v", err)
	} else if d := digest(c.Sets, got); d != c.Digest {
		r.fail("unpatched generation: answers %s differ from the reference %s", d, c.Digest)
	}

	next := 0 // mutation batches are consumed in order, warm-up included
	reads := order(e.seed, len(c.Sets))
	cycle := func(int) {
		batch := c.Cycles[next]
		next++
		sys, _, err := l.Apply(ctx, batch, fmt.Sprintf("cycle-%d", next))
		if err != nil {
			r.fail("cycle %d: apply: %v", next, err)
			return
		}
		gen = sys
		for i := 0; i < liveReads; i++ {
			k := reads[(next*liveReads+i)%len(reads)]
			res, err := gen.MineContext(ctx, c.Sets[k], remi.WithTimeout(mineTimeout))
			if err != nil || res.Stats.TimedOut {
				r.fail("cycle %d set %d: err=%v", next, k, err)
				return
			}
		}
		if next%compactGap == 0 {
			if gen, err = l.Compact(ctx); err != nil {
				r.fail("cycle %d: compact: %v", next, err)
			}
		}
	}
	timePass(compactGap, selfCPU, cycle) // the warm-up compacts once too
	r.Metrics["setup_s"] = e.setupSeconds()
	p := timePass(e.liveCycles(), selfCPU, cycle)
	rss, err := selfRSS()
	if err != nil {
		return nil, err
	}
	r.summarize([]pass{p}, rss)

	// Patched ≡ compacted: one more batch, its answers, then the same sets on
	// the compacted snapshot opened as a plain file.
	asked, _ := probes(c, e.seed)
	patched, _, err := l.Apply(ctx, c.Cycles[next], "verify-compact")
	if err != nil {
		return nil, err
	}
	want, err := mineAnswers(patched, asked)
	if err != nil {
		return nil, err
	}
	if _, err := l.Compact(ctx); err != nil {
		return nil, err
	}
	flat, err := remi.Load(filepath.Join(liveDir, "canon.snap"))
	if err != nil {
		return nil, err
	}
	defer flat.Close()
	if got, err := mineAnswers(flat, asked); err != nil || digest(asked, got) != digest(asked, want) {
		r.fail("patched generation and its compacted snapshot disagree (err=%v)", err)
	}

	// Recovered ≡ live: a last batch leaves records in the WAL; the files are
	// copied while the KB is open, as a crash would leave them.
	live, _, err := l.Apply(ctx, c.Cycles[next+1], "verify-recover")
	if err != nil {
		return nil, err
	}
	if want, err = mineAnswers(live, asked); err != nil {
		return nil, err
	}
	crashDir := filepath.Join(e.dir, "crash")
	if err := os.MkdirAll(crashDir, 0o755); err != nil {
		return nil, err
	}
	for _, name := range []string{"canon.snap", "canon.wal"} {
		b, err := os.ReadFile(filepath.Join(liveDir, name))
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(crashDir, name), b, 0o644); err != nil {
			return nil, err
		}
	}
	recovered, err := remi.OpenLive(crashDir, "canon", remi.LiveOptions{})
	if err != nil {
		return nil, err
	}
	defer recovered.Close()
	if got, err := mineAnswers(recovered.System(), asked); err != nil || digest(asked, got) != digest(asked, want) {
		r.fail("recovered copy and live generation disagree (err=%v)", err)
	}
	r.Digest = digest(asked, want)
	r.Notes = append(r.Notes, fmt.Sprintf("%d mutations and %d reads per op, compaction every %d ops; 3 equivalence checks",
		liveOps, liveReads, compactGap))
	return r, nil
}
