package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/faults"
)

// tinySnapshot writes the shared demo KB as <dir>/<name>.snap and returns
// the file path.
func tinySnapshot(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name+".snap")
	if err := tinySystem(t).SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPullerFileSourceAndUnchanged(t *testing.T) {
	src := tinySnapshot(t, t.TempDir(), "geo")
	cache := t.TempDir()
	p := NewPuller("geo", src, cache)
	if p.Name() != "geo" {
		t.Fatalf("Name() = %q", p.Name())
	}

	sys, err := p.Load()
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumFacts() == 0 {
		t.Fatal("pulled system is empty")
	}
	if _, err := os.Stat(p.CurrentPath()); err != nil {
		t.Fatalf("no installed image at CurrentPath: %v", err)
	}

	// An identical re-pull is the benign no-op signal, not a reload.
	if _, err := p.Load(); !errors.Is(err, ErrKBUnchanged) {
		t.Fatalf("re-pull of identical image: %v, want ErrKBUnchanged", err)
	}
}

func TestPullerDirSource(t *testing.T) {
	dir := t.TempDir()
	tinySnapshot(t, dir, "geo")
	p := NewPuller("geo", dir, t.TempDir())
	if _, err := p.Load(); err != nil {
		t.Fatal(err)
	}
}

func TestPullerHTTPSource(t *testing.T) {
	dir := t.TempDir()
	tinySnapshot(t, dir, "geo")
	fs := httptest.NewServer(http.FileServer(http.Dir(dir)))
	defer fs.Close()

	t.Run("trailing slash appends name", func(t *testing.T) {
		p := NewPuller("geo", fs.URL+"/", t.TempDir())
		if _, err := p.Load(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("exact URL", func(t *testing.T) {
		p := NewPuller("geo", fs.URL+"/geo.snap", t.TempDir())
		if _, err := p.Load(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("missing image", func(t *testing.T) {
		p := NewPuller("absent", fs.URL+"/", t.TempDir())
		if _, err := p.Load(); err == nil || !strings.Contains(err.Error(), "answered") {
			t.Fatalf("404 pull: %v", err)
		}
	})
}

func TestPullerMissingFileSource(t *testing.T) {
	p := NewPuller("geo", filepath.Join(t.TempDir(), "nope.snap"), t.TempDir())
	if _, err := p.Load(); err == nil {
		t.Fatal("pull from a missing file succeeded")
	}
}

func TestPullerCorruptPullRejected(t *testing.T) {
	src := tinySnapshot(t, t.TempDir(), "geo")
	cache := t.TempDir()
	p := NewPuller("geo", src, cache)

	disarm := faults.Arm(faults.FetchCorrupt, faults.Injection{Err: errors.New("armed")})
	_, err := p.Load()
	if err == nil || !strings.Contains(err.Error(), "verifying pulled snapshot") {
		disarm()
		t.Fatalf("corrupt pull: %v, want a verification rejection", err)
	}
	if faults.Hits(faults.FetchCorrupt) < 1 {
		disarm()
		t.Fatal("fetch.corrupt never fired; the hook is not wired into the pull path")
	}
	// Nothing installed, nothing left behind.
	entries, _ := os.ReadDir(cache)
	for _, e := range entries {
		t.Fatalf("corrupt pull left %q in the cache dir", e.Name())
	}
	disarm()

	// Healthy pull after the corruption clears.
	if _, err := p.Load(); err != nil {
		t.Fatal(err)
	}

	// A corrupt pull after a good one must not poison the unchanged-hash
	// shortcut: the flipped image hashes differently, fails verification,
	// and the next clean pull is recognized as unchanged.
	disarm = faults.Arm(faults.FetchCorrupt, faults.Injection{Err: errors.New("armed")})
	if _, err := p.Load(); err == nil {
		disarm()
		t.Fatal("corrupt re-pull succeeded")
	}
	disarm()
	if _, err := p.Load(); !errors.Is(err, ErrKBUnchanged) {
		t.Fatalf("clean re-pull after corruption: %v, want ErrKBUnchanged", err)
	}
}

func TestPullerEmptySource(t *testing.T) {
	src := filepath.Join(t.TempDir(), "empty.snap")
	if err := os.WriteFile(src, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	p := NewPuller("empty", src, t.TempDir())
	if _, err := p.Load(); err == nil {
		t.Fatal("empty snapshot pulled successfully")
	}
	// With corruption armed the flip itself reports the empty file.
	disarm := faults.Arm(faults.FetchCorrupt, faults.Injection{Err: errors.New("armed")})
	defer disarm()
	if _, err := p.Load(); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("corrupting an empty pull: %v", err)
	}
}

func TestPullerSourceUpdateReloads(t *testing.T) {
	srcDir := t.TempDir()
	src := tinySnapshot(t, srcDir, "geo")
	p := NewPuller("geo", src, t.TempDir())
	if _, err := p.Load(); err != nil {
		t.Fatal(err)
	}

	// Publish a different image at the source: the next pull must load it.
	// (The tiny dataset is seed-independent, so switch datasets outright.)
	other, err := remi.GenerateDemo("dbpedia", 7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.SaveSnapshot(src); err != nil {
		t.Fatal(err)
	}
	sys, err := p.Load()
	if err != nil {
		t.Fatalf("pull of updated source: %v", err)
	}
	if sys == nil || sys.NumFacts() == 0 {
		t.Fatal("updated pull produced no system")
	}
}
