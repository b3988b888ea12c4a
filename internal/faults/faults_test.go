package faults

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisarmedIsNoop(t *testing.T) {
	if Armed() {
		t.Fatal("fresh package reports armed")
	}
	if err := Fire(context.Background(), ReloadOpen); err != nil {
		t.Fatalf("disarmed Fire = %v", err)
	}
	if Hits(ReloadOpen) != 0 {
		t.Fatal("disarmed point recorded hits")
	}
}

func TestArmErrAndDisarm(t *testing.T) {
	boom := errors.New("boom")
	disarm := Arm(ReloadOpen, Injection{Err: boom})
	defer disarm()
	if !Armed() {
		t.Fatal("not armed after Arm")
	}
	if err := Fire(context.Background(), ReloadOpen); !errors.Is(err, boom) {
		t.Fatalf("Fire = %v, want boom", err)
	}
	// A different point stays silent.
	if err := Fire(context.Background(), MinePanic); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
	if got := Hits(ReloadOpen); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	disarm()
	if Armed() {
		t.Fatal("still armed after disarm")
	}
	if err := Fire(context.Background(), ReloadOpen); err != nil {
		t.Fatalf("Fire after disarm = %v", err)
	}
	disarm() // idempotent
}

func TestArmPanic(t *testing.T) {
	defer Arm(MinePanic, Injection{Panic: "kaboom"})()
	defer func() {
		if p := recover(); p != "kaboom" {
			t.Fatalf("recovered %v, want kaboom", p)
		}
	}()
	_ = Fire(context.Background(), MinePanic)
	t.Fatal("Fire did not panic")
}

func TestBlockUnparksOnDisarm(t *testing.T) {
	disarm := Arm(JobStuck, Injection{Block: true})
	released := make(chan error, 1)
	go func() { released <- Fire(context.Background(), JobStuck) }()
	select {
	case err := <-released:
		t.Fatalf("blocked Fire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	disarm()
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("Fire after disarm = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fire stayed blocked after disarm")
	}
}

func TestBlockCtxUnparksOnContext(t *testing.T) {
	boom := errors.New("stuck")
	defer Arm(JobStuck, Injection{Block: true, BlockCtx: true, Err: boom})()
	ctx, cancel := context.WithCancel(context.Background())
	released := make(chan error, 1)
	go func() { released <- Fire(ctx, JobStuck) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-released:
		if !errors.Is(err, boom) {
			t.Fatalf("Fire = %v, want stuck", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fire ignored the context")
	}
}

func TestDelayBoundedByContext(t *testing.T) {
	defer Arm(ReloadSlow, Injection{Delay: time.Hour})()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := Fire(ctx, ReloadSlow); err != nil {
		t.Fatalf("Fire = %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("delay ignored the context (took %v)", took)
	}
}

func TestRearmReplaces(t *testing.T) {
	e1, e2 := errors.New("one"), errors.New("two")
	d1 := Arm(ReloadCorrupt, Injection{Err: e1})
	d2 := Arm(ReloadCorrupt, Injection{Err: e2})
	defer d2()
	if err := Fire(context.Background(), ReloadCorrupt); !errors.Is(err, e2) {
		t.Fatalf("Fire = %v, want two", err)
	}
	// The stale disarm func must not remove the replacement.
	d1()
	if err := Fire(context.Background(), ReloadCorrupt); !errors.Is(err, e2) {
		t.Fatalf("Fire after stale disarm = %v, want two", err)
	}
}

func TestResetDisarmsEverything(t *testing.T) {
	Arm(ReloadOpen, Injection{Err: errors.New("a")})
	Arm(StreamStall, Injection{Block: true})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = Fire(context.Background(), StreamStall)
	}()
	time.Sleep(5 * time.Millisecond)
	Reset()
	wg.Wait() // blocked Fire must unpark
	if Armed() {
		t.Fatal("armed after Reset")
	}
	if err := Fire(context.Background(), ReloadOpen); err != nil {
		t.Fatalf("Fire after Reset = %v", err)
	}
}
