// Command remi-serve runs the REMI mining service: it loads (or generates)
// one or more knowledge bases once and serves referring-expression mining
// over HTTP/JSON until stopped.
//
// Usage:
//
//	remi-serve -demo tiny
//	remi-serve -kb dbpedia.nt -addr :9090 -workers 8 -timeout 10s
//	remi-serve -kb dbpedia.snap            # compiled snapshot: O(page-in) cold start
//	remi-serve -kb db=dbpedia.snap -kb wd=wikidata.snap   # multi-KB routing
//	remi-serve -snapshot-source http://kb-store/dbpedia.snap   # replica mode
//
// -kb accepts N-Triples (.nt) or a compiled KB snapshot
// (any extension; detected by magic — produce one with kbgen -snapshot or
// remi.System.SaveSnapshot), optionally prefixed with a registry name
// (name=path) and repeated to serve several KBs from one process. Requests
// route to a KB with a "kb" body field or a /v1/kb/{name}/ path prefix; the
// first -kb flag (or -demo) is the default for requests that name none.
// Snapshots make cold start and SIGHUP reload an mmap-backed open instead
// of a full parse+index build, which is what makes serving many KBs and
// frequent reloads under traffic practical. A generation replaced by a
// reload or a write is closed, and its snapshot mapping released, when the
// last run reading it returns, so the process maps one image per KB plus
// one per generation something still reads.
//
// Live KBs: -live-dir turns every -kb entry into a mutable, WAL-backed
// knowledge base rooted in that directory (<dir>/<name>.snap +
// <dir>/<name>.wal). Facts are then mutable at runtime through
// POST /v1/kb/{name}/facts — each batch is fsynced to the WAL before it is
// acknowledged, so acked facts survive a crash — and
// POST /v1/admin/compile writes the serving generation as a fresh snapshot
// and truncates the WAL, and that generation keeps serving. On boot a
// live KB prefers its compacted snapshot and replays the WAL tail; the
// -kb path is only parsed on the very first boot. Live KBs are excluded
// from SIGHUP reloads (their state is WAL-owned, not source-owned). See
// the Operations runbook in the README next to this file.
//
// Replica mode: -snapshot-source (repeatable, name=URL|dir|file) turns the
// process into a snapshot-pulling replica behind remi-router. Each source
// is downloaded to -snapshot-cache, verified by opening the copy that will
// serve (a failed or corrupt pull never touches serving) and refreshed every
// -snapshot-refresh through the same last-known-good reload path SIGHUP
// uses. The listener comes up immediately, but /readyz stays 503 until
// every source has loaded once — so a router never routes to a replica
// that has nothing to serve — and an unchanged image refresh is a no-op
// that keeps result caches warm.
//
// Endpoints (each also available under /v1/kb/{name}/...):
//
//	POST /v1/mine        {"targets": ["<iri>", ...], "metric": "fr|pr", ...}
//	POST /v1/mine:batch  {"sets": [["<iri>", ...], ...], ...}
//	POST /v1/mine:async  single or batch body -> 202 + job document
//	GET  /v1/jobs/{id}   poll a job; DELETE cancels; /stream follows it
//	POST /v1/mine:stream blocking submit, NDJSON or SSE streamed response
//	POST /v1/summarize   {"entity": "<iri>", "size": 5}
//	GET  /v1/describe?entity=<iri>
//	POST /v1/kb/{name}/facts    {"ops":[{"op":"upsert|retract","s":"<iri>","p":"<iri>","o":"<iri>|\"lit\""}]}
//	POST /v1/admin/compile      {"kb":"name"}  write the serving generation as the snapshot
//	GET  /v1/stats
//	GET  /healthz        liveness: always 200 while the process runs
//	GET  /readyz         readiness: 503 while booting or draining
//
// Every mining request — blocking, batch, async, streaming — runs as a job
// on one admission-controlled worker pool (-job-workers/-job-queue; full
// queues shed load with 429 + Retry-After) and shares one flight-key
// namespace: concurrent identical queries join a single run no matter which
// endpoint carried them. A client disconnect or timeout cancels the
// underlying mining run, and a batch request mines each of its target sets
// as an ordinary mine at batch priority.
//
// Fault tolerance: SIGHUP reloads every KB through a last-known-good path —
// a failed reload keeps the current generation serving and quarantines the
// KB with exponential backoff. -watchdog-grace arms a watchdog that kills
// jobs wedged past their deadline, -quota-rate enforces per-client
// admission quotas, -interactive-reserve keeps queue headroom for
// interactive work, and SIGTERM drains gracefully (readiness flips first,
// in-flight jobs get -drain-timeout to finish). See the Operations section
// of the README next to this file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/server"
	"github.com/remi-kb/remi/internal/wire"
)

// kbFlag is one -kb occurrence: an optional registry name and a path.
type kbFlag struct{ name, path string }

// kbFlags collects repeated -kb / -snapshot-source flags ("path" or
// "name=path").
type kbFlags []kbFlag

func (f *kbFlags) String() string {
	parts := make([]string, len(*f))
	for i, kf := range *f {
		parts[i] = kf.name + "=" + kf.path
	}
	return strings.Join(parts, ",")
}

func (f *kbFlags) Set(v string) error {
	name, path := server.DefaultKBName, v
	// Split at the first '=' only when it precedes any "://", so a bare
	// URL source with query parameters stays one piece.
	if i := strings.IndexByte(v, '='); i >= 0 && (strings.Index(v, "://") == -1 || i < strings.Index(v, "://")) {
		name, path = v[:i], v[i+1:]
	}
	if name == "" || path == "" {
		return fmt.Errorf("want path or name=path, got %q", v)
	}
	if err := server.ValidateKBName(name); err != nil {
		return err
	}
	for _, kf := range *f {
		if kf.name == name {
			return fmt.Errorf("KB name %q repeated", name)
		}
	}
	*f = append(*f, kbFlag{name: name, path: path})
	return nil
}

// kbSource is one named loader in the registry-assembly order. liveSrc is
// set (to the -kb path) when -live-dir promotes the entry to a mutable
// WAL-backed KB; load is nil then.
type kbSource struct {
	name    string
	load    func() (*remi.System, error)
	liveSrc string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("remi-serve: ")

	var kbs, snaps kbFlags
	flag.Var(&kbs, "kb", "knowledge base file (.nt or snapshot), optionally name=path; repeat to serve several KBs")
	flag.Var(&snaps, "snapshot-source", "replica mode: snapshot source (URL, directory or file), optionally name=source; repeat for several KBs")
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		demo         = flag.String("demo", "", "serve a bundled demo dataset instead of -kb (tiny|dbpedia|wikidata)")
		seed         = flag.Int64("seed", 42, "seed for -demo datasets")
		scale        = flag.Float64("scale", 0, "scale for -demo datasets (0 = default)")
		timeout      = flag.Duration("timeout", 30*time.Second, "default per-request mining timeout (0 = none)")
		maxTimeout   = flag.Duration("max-timeout", 2*time.Minute, "ceiling on any mining run, including ones that would otherwise be unbounded (0 = none)")
		workers      = flag.Int("workers", 1, "default P-REMI workers per mining run (1 = sequential)")
		maxWorkers   = flag.Int("max-workers", 32, "upper bound on request-supplied worker counts (0 = none)")
		maxTargets   = flag.Int("max-targets", 64, "maximum targets per mine request (and per batch set)")
		maxBatchSets = flag.Int("batch-sets", 64, "maximum target sets per mine:batch request")
		resultCache  = flag.Int("result-cache", 1024, "completed-result LRU entries (negative = disabled)")
		jobWorkers   = flag.Int("job-workers", 4, "worker pool executing mining jobs (all request kinds)")
		jobQueue     = flag.Int("job-queue", 64, "admitted jobs that may wait for a worker before 429s")
		jobTTL       = flag.Duration("job-ttl", 5*time.Minute, "how long finished async jobs stay pollable")

		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before closing the listener")
		quotaRate     = flag.Float64("quota-rate", 0, "per-client mining admissions per second (0 = quotas off)")
		quotaBurst    = flag.Float64("quota-burst", 0, "per-client burst bucket (0 = server default)")
		interReserve  = flag.Int("interactive-reserve", 0, "queue slots reserved for interactive (non-batch) jobs")
		watchdogGrace = flag.Duration("watchdog-grace", 0, "grace past a job's deadline before the watchdog kills it (0 = watchdog off)")

		snapRefresh = flag.Duration("snapshot-refresh", 30*time.Second, "how often replica mode re-pulls each -snapshot-source (0 = never)")
		snapCache   = flag.String("snapshot-cache", filepath.Join(os.TempDir(), "remi-snapshots"), "directory replica mode caches pulled snapshots in")

		liveDir = flag.String("live-dir", "", "serve every -kb entry as a live (mutable, WAL-backed) KB rooted in this directory")
	)
	flag.Parse()

	// Assemble the registry of loaders: -demo (as the default KB), every
	// -kb flag, then every -snapshot-source puller. The first entry is the
	// default for requests naming no KB.
	var sources []kbSource
	if *demo != "" {
		sources = append(sources, kbSource{
			name: server.DefaultKBName,
			load: func() (*remi.System, error) { return remi.GenerateDemo(*demo, *seed, *scale) },
		})
	}
	for _, kf := range kbs {
		if *demo != "" && kf.name == server.DefaultKBName {
			log.Fatalf("-demo already serves the %q KB; give -kb %s a name (name=path)", kf.name, kf.path)
		}
		path := kf.path
		if *liveDir != "" {
			sources = append(sources, kbSource{name: kf.name, liveSrc: path})
			continue
		}
		sources = append(sources, kbSource{
			name: kf.name,
			load: func() (*remi.System, error) { return remi.Load(path) },
		})
	}
	var pullers []*server.Puller
	for _, sf := range snaps {
		for _, src := range sources {
			if src.name == sf.name {
				log.Fatalf("KB %q is served by both -snapshot-source and another flag", sf.name)
			}
		}
		p := server.NewPuller(sf.name, sf.path, *snapCache)
		pullers = append(pullers, p)
		sources = append(sources, kbSource{name: sf.name, load: p.Load})
	}
	if len(sources) == 0 {
		log.Fatal(errors.New("one of -kb, -demo or -snapshot-source is required"))
	}

	// liveKBs holds the WAL-backed KBs of the serving registry; closed on
	// shutdown, after the server stopped accepting mutations.
	var liveKBs map[string]*remi.LiveKB

	// buildServer loads every source and assembles the registry; in replica
	// mode it runs off the serving path and may be retried.
	buildServer := func() (*server.Server, error) {
		systems := make(map[string]*remi.System, len(sources))
		lives := make(map[string]*remi.LiveKB)
		closeLives := func() {
			for _, l := range lives {
				l.Close()
			}
		}
		for _, src := range sources {
			t0 := time.Now()
			if src.liveSrc != "" {
				l, err := remi.OpenLive(*liveDir, src.name, remi.LiveOptions{Source: src.liveSrc})
				if err != nil {
					closeLives()
					return nil, fmt.Errorf("opening live KB %q: %w", src.name, err)
				}
				lives[src.name] = l
				sys := l.System()
				systems[src.name] = sys
				st := l.Stats()
				log.Printf("live KB %q ready in %v: %d facts, %d entities (WAL: %d records replayed, %d bytes torn tail dropped)",
					src.name, time.Since(t0).Round(time.Millisecond), sys.NumFacts(), sys.NumEntities(),
					st.RecoveryReplayed, st.RecoveryDroppedBytes)
				continue
			}
			sys, err := src.load()
			if err != nil {
				closeLives()
				return nil, fmt.Errorf("loading KB %q: %w", src.name, err)
			}
			systems[src.name] = sys
			log.Printf("KB %q ready in %v: %d facts, %d entities, %d predicates",
				src.name, time.Since(t0).Round(time.Millisecond), sys.NumFacts(), sys.NumEntities(), sys.NumPredicates())
		}
		srv := server.NewNamed(sources[0].name, systems[sources[0].name], server.Options{
			DefaultTimeout: *timeout,
			MaxTimeout:     *maxTimeout,
			DefaultWorkers: *workers,
			MaxWorkers:     *maxWorkers,
			MaxTargets:     *maxTargets,
			MaxBatchSets:   *maxBatchSets,
			ResultCache:    *resultCache,
			JobWorkers:     *jobWorkers,
			JobQueueDepth:  *jobQueue,
			JobTTL:         *jobTTL,

			QuotaRate:          *quotaRate,
			QuotaBurst:         *quotaBurst,
			InteractiveReserve: *interReserve,
			WatchdogGrace:      *watchdogGrace,
		})
		for _, src := range sources[1:] {
			if err := srv.AddKB(src.name, systems[src.name]); err != nil {
				srv.Close()
				closeLives()
				return nil, err
			}
		}
		for name, l := range lives {
			if err := srv.BindLive(name, l); err != nil {
				srv.Close()
				closeLives()
				return nil, err
			}
		}
		liveKBs = lives
		return srv, nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The listener serves whatever handler is currently installed: the
	// booting stub until the first successful load (readiness gates on it),
	// then the real server. Swapping an atomic pointer is what lets replica
	// mode bring the port up before its snapshots have arrived.
	var srvPtr atomic.Pointer[server.Server]
	var handler atomic.Pointer[http.Handler] // concrete type differs boot vs ready, so not atomic.Value
	boot := bootingHandler()
	handler.Store(&boot)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { (*handler.Load()).ServeHTTP(w, r) }),
		ReadHeaderTimeout: 10 * time.Second,
	}

	activate := func(srv *server.Server) {
		srvPtr.Store(srv)
		h := srv.Handler()
		handler.Store(&h)
		if len(pullers) > 0 && *snapRefresh > 0 {
			// Periodic refresh through the last-known-good reload path: a
			// corrupt or unreachable source quarantines with backoff while
			// the old generation serves; an unchanged image is a no-op.
			go func() {
				t := time.NewTicker(*snapRefresh)
				defer t.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-t.C:
						for _, p := range pullers {
							p := p
							if err := srv.ReloadKB(p.Name(), p.Load); err != nil {
								log.Printf("snapshot refresh of %q: %v", p.Name(), err)
							}
						}
					}
				}
			}()
		}
	}

	if len(pullers) > 0 {
		// Replica mode boots in the background, retrying with backoff: a
		// replica whose source is briefly down comes up serving 503s and
		// recovers on its own instead of crash-looping.
		go func() {
			backoff := time.Second
			for ctx.Err() == nil {
				srv, err := buildServer()
				if err == nil {
					activate(srv)
					log.Printf("replica ready (%d KBs)", len(sources))
					return
				}
				log.Printf("bootstrap: %v (retrying in %s)", err, backoff)
				select {
				case <-ctx.Done():
					return
				case <-time.After(backoff):
				}
				backoff = min(backoff*2, 30*time.Second)
			}
		}()
	} else {
		srv, err := buildServer()
		if err != nil {
			log.Fatal(err)
		}
		activate(srv)
	}

	// SIGHUP reloads every knowledge base from its source through the
	// server's last-known-good path: a failed or quarantined reload keeps
	// the current generation serving, and repeated failures back off
	// exponentially before the next attempt is admitted.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			srv := srvPtr.Load()
			if srv == nil {
				log.Print("SIGHUP: still booting, nothing to reload")
				continue
			}
			log.Print("SIGHUP: reloading knowledge bases")
			for _, src := range sources {
				if src.liveSrc != "" {
					// A live KB's state is WAL-owned, not source-owned: a
					// source reload would silently drop acknowledged
					// mutations. Compaction is its maintenance operation.
					log.Printf("KB %q is live; skipping reload (use POST /v1/admin/compile)", src.name)
					continue
				}
				t0 := time.Now()
				if err := srv.ReloadKB(src.name, src.load); err != nil {
					log.Printf("reload of %q: %v", src.name, err)
					continue
				}
				log.Printf("KB %q reloaded in %v", src.name, time.Since(t0).Round(time.Millisecond))
			}
		}
	}()

	// Serve until SIGINT/SIGTERM, then drain gracefully: readiness flips to
	// draining first (load balancers stop routing here while /healthz stays
	// green), new mining work is refused with 503, in-flight jobs get up to
	// -drain-timeout to finish, and only then does the listener close.
	done := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (%d KBs)", *addr, len(sources))
		done <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		srv := srvPtr.Load()
		if srv != nil {
			log.Print("draining: readiness down, waiting for in-flight jobs")
			srv.StartDrain()
			drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
			if err := srv.DrainWait(drainCtx); err != nil {
				log.Printf("drain timeout after %v: closing with jobs still running", *drainTimeout)
			}
			cancelDrain()
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Fatal(err)
		}
		log.Print("drained and stopped")
	}
	if srv := srvPtr.Load(); srv != nil {
		srv.Close()
	}
	// Live KBs close last: the WAL handle outlives the HTTP plane, so a
	// mutation in flight during drain still reaches stable storage.
	for name, l := range liveKBs {
		if err := l.Close(); err != nil {
			log.Printf("closing live KB %q: %v", name, err)
		}
	}
}

// bootingHandler serves while a replica waits for its first successful
// snapshot load: alive (200 /healthz) but not ready (503 /readyz), and
// every other request is refused with a Retry-After so routers and clients
// back off instead of erroring opaquely.
func bootingHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, json.RawMessage(`{"status":"ok","booting":true}`))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusServiceUnavailable, json.RawMessage(`{"status":"booting"}`))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		wire.SetRetryAfter(w, time.Second)
		wire.WriteError(w, http.StatusServiceUnavailable, errors.New("server is booting: knowledge bases not yet loaded"))
	})
	return mux
}
