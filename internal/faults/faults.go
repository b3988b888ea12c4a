// Package faults compiles named failure points into the fleet so the chaos
// suites can prove degraded behavior instead of hoping for it: a test arms
// a point (an injected error, a panic, a delay, or a block that models
// wedged code), drives the system through its public surface, and asserts
// the documented containment. It imports only the standard library, so
// every layer — storage, server, router — fires its points without linking
// any of the others.
//
// Production pays one atomic load per failure point while nothing is
// armed: every entry into the package goes through Armed(), which reads a
// single counter and returns immediately at zero. Arming is test-only by
// convention (nothing in cmd/ or the handlers calls Arm), and Arm returns
// the disarm func so tests can defer it.
//
// The points are deliberately few and named after the failure they model,
// not after the code line they live on — call sites may move, the chaos
// suite's vocabulary should not. This is the one list of them, by the
// layer that fires each, with the chaos test that arms it (the constants
// below document the degraded behavior each test asserts):
//
// Storage (internal/wal, the root package's LiveKB):
//
//	wal.sync       TestSyncFaultLeavesLogUsable (wal), TestLiveKBSyncFailureNeverAcks,
//	               TestFactsChaosWalSyncFailure (server)
//	wal.torn       TestTornFaultRefusesAndRecovers (wal), TestLiveKBTornWriteRecovery,
//	               TestFactsChaosTornAppend (server)
//	compact.crash  TestLiveKBCompactionAndCrash, TestCompileChaosCrashContainment (server)
//	delta.apply    TestLiveKBDeltaApplyFaultLeavesNoTrace
//
// Server (internal/server):
//
//	reload.open     TestChaosReloadLastKnownGood, TestChaosReloadBackoffDoubles
//	reload.corrupt  TestChaosReloadLastKnownGood
//	reload.slow     TestChaosReloadSlowDoesNotBlockServing
//	mine.panic      TestChaosMinePanicContained
//	job.stuck       TestChaosWatchdogKillsStuckMine, TestChaosWatchdogFailedJobDocument,
//	                TestChaosQuotaVsSaturation, TestChaosBatchPriorityReserve,
//	                TestChaosGracefulDrain, TestBatchSetWatchdogPerSet,
//	                TestBatchPartialAdmission, TestBatchSetAfterSwapMinesCurrentGeneration
//	stream.stall    TestChaosStreamStallBoundedLog
//	fetch.corrupt   TestPullerCorruptPullRejected, TestChaosCorruptPullLastKnownGood (cluster)
//
// Router (internal/cluster):
//
//	replica.down   TestChaosPrimaryDownGoldenAnswers, TestChaosBreakerLifecycle
//	replica.slow   TestChaosSlowPrimaryHedged
//	probe.timeout  TestProbeTimeoutFault
package faults

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one failure point compiled into the fleet.
type Point string

// The failure points. Each is documented with the degraded behavior the
// chaos suite asserts when it is armed.
const (
	// ReloadOpen fails a KB reload before the source is read: a missing
	// file, a permission error, a snapshot whose open fails. Degraded
	// behavior: the old generation keeps serving, the source is
	// quarantined with backoff.
	ReloadOpen Point = "reload.open"
	// ReloadCorrupt fails a KB reload after the source was read: a
	// corrupt or truncated snapshot payload, a parse error mid-file.
	// Degraded behavior: identical to ReloadOpen (the failure mode
	// differs, the containment must not).
	ReloadCorrupt Point = "reload.corrupt"
	// ReloadSlow delays a KB reload (slow disk, cold page cache).
	// Degraded behavior: serving continues on the old generation while
	// the reload runs; no request blocks on it.
	ReloadSlow Point = "reload.slow"
	// MinePanic panics inside a pool-executed mining run (an evaluator
	// bug). Degraded behavior: the waiter gets a 500, the process and the
	// pool survive.
	MinePanic Point = "mine.panic"
	// JobStuck wedges a pool-executed mining run (an evaluator loop that
	// stopped checking its context). Degraded behavior: the watchdog
	// fails the job with ErrWatchdogKilled and frees its worker slot.
	JobStuck Point = "job.stuck"
	// StreamStall wedges a streaming response mid-write (a consumer that
	// stopped reading while the kernel buffers filled). Degraded
	// behavior: the job's event log stays bounded and a late reader sees
	// an explicit truncation marker.
	StreamStall Point = "stream.stall"

	// ReplicaDown fails the router's forward to a key's primary replica (a
	// crashed process, a dropped connection). It fires only on the primary
	// attempt, so tests model "the primary is down" without taking the
	// whole fleet with it. Degraded behavior: the router retries onto the
	// next healthy replica in ring order and the client sees the same
	// answer it would have gotten from a healthy primary; after K
	// consecutive failures the replica's circuit breaker opens.
	ReplicaDown Point = "replica.down"
	// ReplicaSlow delays the router's forward to a key's primary replica
	// (a GC pause, a saturated node). Like ReplicaDown it fires only on
	// the primary attempt. Degraded behavior: a hedged second request
	// answers from another replica before the slow primary does.
	ReplicaSlow Point = "replica.slow"
	// FetchCorrupt corrupts a replica's snapshot pull after the bytes
	// arrive (a torn upload, bit rot on the wire). When armed with an
	// error, the puller flips a byte of the downloaded image, so the
	// checksum verification — not the injection — rejects it. Degraded
	// behavior: the pull quarantines with backoff and the replica keeps
	// serving its last-known-good generation.
	FetchCorrupt Point = "fetch.corrupt"
	// ProbeTimeout wedges or fails the router's /readyz probe of a
	// replica (a half-dead host that accepts connections but never
	// answers). Degraded behavior: the replica is marked unhealthy and
	// drops out of routing until a probe succeeds again.
	ProbeTimeout Point = "probe.timeout"

	// WalSync fails the fsync that would acknowledge a WAL append (a full
	// disk, a dying device). The record bytes may have reached the file,
	// but durability was never promised. Degraded behavior: the mutation
	// is refused (no ack), the in-memory KB is unchanged, and a later
	// replay may or may not surface the record — both are correct because
	// the client was never told it stuck.
	WalSync Point = "wal.sync"
	// WalTorn crashes an append mid-record: a prefix of the frame reaches
	// the disk and the process dies before the rest. Degraded behavior:
	// the mutation is refused (no ack) and the next boot's replay
	// truncates the torn tail, recovering exactly the acknowledged prefix
	// instead of refusing to start.
	WalTorn Point = "wal.torn"
	// CompactCrash crashes a compaction in its one dangerous window:
	// after the new snapshot is durable but before the WAL is truncated.
	// Degraded behavior: the next boot loads the snapshot and re-applies
	// the whole WAL; replay is idempotent, so already-folded records
	// converge and mining stays byte-identical.
	CompactCrash Point = "compact.crash"
	// DeltaApply fails a mutation while it is still being staged in
	// memory — malformed state detected before anything is written.
	// Degraded behavior: the request fails, and neither the WAL nor the
	// serving KB shows any trace of it.
	DeltaApply Point = "delta.apply"
)

// Injection describes what an armed point does when fired, in the order
// Fire applies them: Delay sleeps, Block parks, Panic panics, Err returns.
type Injection struct {
	// Err is returned by Fire (after Delay/Block) when non-nil.
	Err error
	// Panic is panicked with when non-nil.
	Panic any
	// Delay sleeps before anything else (a slow path, not a failed one).
	Delay time.Duration
	// Block parks Fire until the point is disarmed (a wedged path). With
	// BlockCtx set, the caller's context also unparks it — modelling code
	// that is slow but still cancellable.
	Block    bool
	BlockCtx bool
}

// injection is one armed point plus its release channel and hit counter.
type injection struct {
	Injection
	release chan struct{} // closed at disarm; unparks Block
	hits    atomic.Int64
}

var (
	// armed counts currently-armed points; the disarmed fast path of every
	// Fire is this single atomic load reading zero.
	armed  atomic.Int32
	mu     sync.Mutex
	points = make(map[Point]*injection)
)

// Armed reports whether any failure point is armed. It is the only check
// production code pays while the package is idle.
func Armed() bool { return armed.Load() != 0 }

// Arm installs inj at p and returns the func that disarms it (and unparks
// anything blocked on it). Arming an already-armed point replaces it.
// Test-only by convention.
func Arm(p Point, inj Injection) (disarm func()) {
	mu.Lock()
	defer mu.Unlock()
	if old, ok := points[p]; ok {
		close(old.release)
		armed.Add(-1)
	}
	in := &injection{Injection: inj, release: make(chan struct{})}
	points[p] = in
	armed.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			defer mu.Unlock()
			if points[p] == in {
				delete(points, p)
				close(in.release)
				armed.Add(-1)
			}
		})
	}
}

// Reset disarms every point (test cleanup of last resort).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for p, in := range points {
		delete(points, p)
		close(in.release)
		armed.Add(-1)
	}
}

// Hits reports how many times p fired while armed (0 when never armed),
// so tests can assert a hook is actually wired into the path under test.
func Hits(p Point) int64 {
	mu.Lock()
	defer mu.Unlock()
	if in, ok := points[p]; ok {
		return in.hits.Load()
	}
	return 0
}

// Fire triggers p: a disarmed point returns nil after one atomic load; an
// armed one applies its Injection (delay, block, panic, error — in that
// order). ctx bounds Delay and (with BlockCtx) Block; pass
// context.Background() where no caller context exists.
func Fire(ctx context.Context, p Point) error {
	if armed.Load() == 0 {
		return nil
	}
	return fire(ctx, p)
}

// fire is the armed slow path, kept out of Fire so the fast path inlines.
func fire(ctx context.Context, p Point) error {
	mu.Lock()
	in := points[p]
	mu.Unlock()
	if in == nil {
		return nil
	}
	in.hits.Add(1)
	if in.Delay > 0 {
		t := time.NewTimer(in.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	if in.Block {
		if in.BlockCtx {
			select {
			case <-in.release:
			case <-ctx.Done():
			}
		} else {
			<-in.release
		}
	}
	if in.Panic != nil {
		panic(in.Panic)
	}
	return in.Err
}
