package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/wire"
)

// snapSystem opens the snapshot tinySnapshot writes, so the returned
// System reads from a mapping of <dir>/<name>.snap.
func snapSystem(t *testing.T, dir, name string) *remi.System {
	t.Helper()
	sys, err := remi.Load(tinySnapshot(t, dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// mappings counts the lines of /proc/self/maps naming a path that contains
// sub; it skips the test where /proc is absent.
func mappings(t *testing.T, sub string) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	n := 0
	for _, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, sub) {
			n++
		}
	}
	return n
}

// TestReloadsMapOneImage: a swap closes the System it replaced once
// nothing reads it, so five reloads leave only the serving image mapped —
// with no readers, and with mines racing every swap.
func TestReloadsMapOneImage(t *testing.T) {
	mappings(t, "")
	mine := wire.MineRequest{Targets: []string{tinyNS + "Rennes", tinyNS + "Nantes"}}
	for _, readers := range []int{0, 4} {
		t.Run(fmt.Sprintf("%d readers", readers), func(t *testing.T) {
			dir := t.TempDir()
			s := New(snapSystem(t, dir, "0"), Options{DefaultTimeout: 10 * time.Second, ResultCache: -1})
			t.Cleanup(s.Close)
			h := s.Handler()
			var mined atomic.Int64
			var wg sync.WaitGroup
			stop := make(chan struct{})
			halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
			t.Cleanup(halt)
			for range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if rec := postJSON(t, h, "/v1/mine", mine); rec.Code != http.StatusOK {
							t.Errorf("mine racing a swap: %d %s", rec.Code, rec.Body.String())
							return
						}
						mined.Add(1)
					}
				}()
			}
			for i := 1; i <= 5; i++ {
				n := mined.Load()
				waitFor(t, func() bool { return mined.Load() >= n+int64(readers) })
				if err := s.SwapKB(DefaultKBName, snapSystem(t, dir, fmt.Sprint(i))); err != nil {
					t.Fatal(err)
				}
			}
			halt()
			t.Cleanup(func() { s.sys().Close() })
			if n := mappings(t, dir); n != 1 {
				t.Fatalf("%d mappings under the test dir after 5 swaps, want 1 (the serving image)", n)
			}
			if rec := postJSON(t, h, "/v1/mine", mine); rec.Code != http.StatusOK {
				t.Fatalf("mine on the serving image: %d %s", rec.Code, rec.Body.String())
			}
		})
	}
}

// TestReaderKeepsItsGeneration: a run that started on a System keeps it
// mapped across a swap for exactly as long as the run lasts — also when
// it ignores its context and the watchdog has already failed its job.
func TestReaderKeepsItsGeneration(t *testing.T) {
	mappings(t, "")
	pair := []string{tinyNS + "Rennes", tinyNS + "Nantes"}
	for _, tc := range []struct {
		name     string
		opts     Options
		req      wire.MineRequest
		watchdog bool
	}{
		{"run returns", Options{DefaultTimeout: 10 * time.Second, ResultCache: -1},
			wire.MineRequest{Targets: pair}, false},
		{"run outlives the watchdog", Options{DefaultTimeout: 10 * time.Second, ResultCache: -1, WatchdogGrace: 20 * time.Millisecond},
			wire.MineRequest{Targets: pair, TimeoutMS: 20}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			old := snapSystem(t, dir, "old")
			oldPath := filepath.Join(dir, "old.snap")
			s := New(old, tc.opts)
			t.Cleanup(s.Close)
			parked, resume := make(chan struct{}), make(chan struct{})
			unpark := sync.OnceFunc(func() { close(resume) })
			t.Cleanup(unpark) // a failed check must not leave the run parked
			// The hook parks deaf to ctx, then mines on the System the run
			// started on: a read of its released image would fault.
			s.mine = func(_ context.Context, targets []string, opts ...remi.MineOption) (*remi.Result, error) {
				defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
				close(parked)
				<-resume
				return old.MineContext(context.Background(), targets, opts...)
			}
			done := make(chan *httptest.ResponseRecorder, 1)
			go func() { done <- postJSON(t, s.Handler(), "/v1/mine", tc.req) }()
			<-parked
			if err := s.SwapKB(DefaultKBName, snapSystem(t, dir, "new")); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.sys().Close() })
			if tc.watchdog {
				if rec := <-done; rec.Code != http.StatusGatewayTimeout {
					t.Fatalf("wedged run: %d %s, want the watchdog's 504", rec.Code, rec.Body.String())
				}
			}
			if n := mappings(t, oldPath); n != 1 {
				t.Fatalf("replaced image mapped %d times while a run reads it, want 1", n)
			}
			unpark()
			if tc.watchdog {
				waitFor(t, func() bool { return mappings(t, oldPath) == 0 })
				return
			}
			rec := <-done
			if rec.Code != http.StatusOK {
				t.Fatalf("parked run: %d %s", rec.Code, rec.Body.String())
			}
			if got := decode[MineResponse](t, rec).Solution.Expression; !strings.Contains(got, "Brittany") {
				t.Fatalf("parked run mined %q, want the Brittany RE", got)
			}
			if n := mappings(t, oldPath); n != 0 {
				t.Fatalf("replaced image still mapped %d times after its last run returned", n)
			}
		})
	}
}
