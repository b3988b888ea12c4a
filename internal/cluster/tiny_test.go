package cluster

import (
	"path/filepath"
	"sync"
	"testing"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/server"
)

var (
	tinyOnce sync.Once
	tinySys  *remi.System
	tinyErr  error
)

// tinySystem shares one generated demo KB across the package's tests
// (building it is the expensive part).
func tinySystem(t *testing.T) *remi.System {
	t.Helper()
	tinyOnce.Do(func() { tinySys, tinyErr = remi.GenerateDemo("tiny", 42, 0) })
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinySys
}

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

// NewPuller is the replica-side snapshot puller the fleet chaos test feeds
// a replica with; it lives with the server it reloads.
var NewPuller = server.NewPuller
