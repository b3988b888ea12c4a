package remi

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestServingBinariesLinkNoReproductionCode holds each binary (and the
// storage packages under them) to the packages of this module it runs:
// remi-router is an allow-list — the routing tier parses JSON and hashes
// keys, so it links the router, the fault points and the wire contract and
// nothing else — and the others name what must stay out.
func TestServingBinariesLinkNoReproductionCode(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	const module = "github.com/remi-kb/remi"
	for _, tc := range []struct {
		pkg    string
		only   []string // when set: the module packages it may link, itself included
		banned []string // module-relative prefixes it must not link
	}{
		{pkg: "./cmd/remi-router", only: []string{"cmd/remi-router", "internal/cluster", "internal/faults", "internal/wire"}},
		{pkg: "./cmd/remi-serve", banned: []string{"internal/experiments", "internal/study", "internal/amie"}},
		{pkg: "./cmd/kbgen", banned: []string{"internal/core", "internal/server", "internal/prominence"}},
		// Storage sits under the server, never on it.
		{pkg: "./internal/wal", banned: []string{"internal/server"}},
		{pkg: ".", banned: []string{"internal/server"}},
	} {
		out, err := exec.Command("go", "list", "-deps", tc.pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go list -deps %s: %v\n%s", tc.pkg, err, out)
		}
		for _, dep := range strings.Fields(string(out)) {
			rel, ok := strings.CutPrefix(dep, module+"/")
			if dep == module {
				rel, ok = ".", true
			}
			if !ok {
				continue // standard library
			}
			if tc.only != nil && !slices.Contains(tc.only, rel) {
				t.Errorf("%s links %s; it may link only %v", tc.pkg, rel, tc.only)
			}
			for _, b := range tc.banned {
				if rel == b || strings.HasPrefix(rel, b+"/") {
					t.Errorf("%s links %s", tc.pkg, rel)
				}
			}
		}
	}
}
