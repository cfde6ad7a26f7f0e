// Package repocheck holds the whole-repository checks that are not vet
// passes themselves: the bsvet suite runs clean over the main module (it
// builds cmd/bsvet and drives it through `go vet -vettool` the way CI
// does), and every package under internal/ is linked into some binary.
package repocheck

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// dirs returns the tools/analyzers module directory and the main module's
// root above it.
func dirs(t *testing.T) (moduleDir, repoRoot string) {
	t.Helper()
	moduleDir, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	repoRoot = filepath.Dir(filepath.Dir(moduleDir))
	if _, err := os.Stat(filepath.Join(repoRoot, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", repoRoot, err)
	}
	return moduleDir, repoRoot
}

// goList runs `go list` in the main module and returns the packages it
// prints.
func goList(t *testing.T, repoRoot string, args ...string) []string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = repoRoot
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return strings.Fields(string(out))
}

// TestInternalPackagesReachable: a package under internal/ that no command
// and no example imports, directly or transitively, is tested but can never
// run. Wire it into a binary or delete it.
func TestInternalPackagesReachable(t *testing.T) {
	_, repoRoot := dirs(t)
	linked := make(map[string]bool)
	for _, pkg := range goList(t, repoRoot, "-deps", "./cmd/...", "./examples/...") {
		linked[pkg] = true
	}
	for _, pkg := range goList(t, repoRoot, "./internal/...") {
		if !linked[pkg] {
			t.Errorf("%s is not imported by any package under cmd/ or examples/", pkg)
		}
	}
}

func TestBsvetCleanOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping whole-repo vet run")
	}
	moduleDir, repoRoot := dirs(t)

	bin := filepath.Join(t.TempDir(), "bsvet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/bsvet")
	build.Dir = moduleDir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build bsvet: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = repoRoot
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("bsvet found violations:\n%s", out)
	}
}
