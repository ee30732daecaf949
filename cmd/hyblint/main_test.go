package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVettool builds the hyblint binary and drives it exactly the way
// CI does — through go vet -vettool — against a scratch module,
// proving the unit-checker protocol end to end: a module with
// violations must fail with the analyzers' diagnostics, and the
// corrected module must pass.
func TestVettool(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not available: %v", err)
	}
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "hyblint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/hyblint")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hyblint: %v\n%s", err, out)
	}

	mod := t.TempDir()
	writeFile(t, filepath.Join(mod, "go.mod"), "module scratch\n\ngo 1.24\n")

	const bad = `package scratch

import (
	"sync/atomic"
	"unsafe"
)

type hot struct{ n atomic.Uint64 }

type cell struct {
	hot hot
	_   [64 - unsafe.Sizeof(hot{})%64]byte
}

func WaitReady(ready *atomic.Bool) {
	for !ready.Load() {
	}
}
`
	writeFile(t, filepath.Join(mod, "scratch.go"), bad)
	out, err := runVet(mod, bin)
	if err == nil {
		t.Fatalf("go vet passed over a module with violations; output:\n%s", out)
	}
	for _, wantDiag := range []string{"no //hyblint:padded marker", "raw spin loop"} {
		if !strings.Contains(out, wantDiag) {
			t.Errorf("vet output does not mention %q:\n%s", wantDiag, out)
		}
	}

	const good = `package scratch

import (
	"sync/atomic"
	"unsafe"
)

type hot struct{ n atomic.Uint64 }

//hyblint:padded
type cell struct {
	hot hot
	_   [64 - unsafe.Sizeof(hot{})%64]byte
}

func WaitReady(ready *atomic.Bool) bool { return ready.Load() }
`
	writeFile(t, filepath.Join(mod, "scratch.go"), good)
	if out, err := runVet(mod, bin); err != nil {
		t.Fatalf("go vet failed over a clean module: %v\n%s", err, out)
	}
}

func runVet(dir, vettool string) (string, error) {
	cmd := exec.Command("go", "vet", "-vettool="+vettool, "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GO111MODULE=on")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
