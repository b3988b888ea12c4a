package remi

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestServingBinariesLinkNoReproductionCode: remi-serve and remi-router must
// not pull in the paper-reproduction packages (or the packages this
// repository has retired) through any import path.
func TestServingBinariesLinkNoReproductionCode(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command("go", "list", "-deps", "./cmd/remi-serve", "./cmd/remi-router").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	deps := strings.Fields(string(out))
	for _, banned := range []string{"experiments", "study", "amie", "hdt", "pqueue"} {
		if pkg := "github.com/remi-kb/remi/internal/" + banned; slices.Contains(deps, pkg) {
			t.Errorf("a serving binary links %s", pkg)
		}
	}
}
