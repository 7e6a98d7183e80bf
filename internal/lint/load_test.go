package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclesql/internal/lint"
)

// plantedModule is a throwaway module named cyclesql: a library package
// with one raw time.Sleep, the same call in an in-package and an external
// test file beside it, and a clean package that imports the first.
var plantedModule = map[string]string{
	"go.mod": "module cyclesql\n\ngo 1.24\n",
	"internal/core/planted.go": `package core

import "time"

func Wait(d time.Duration) {
	time.Sleep(d) // planted
}
`,
	"internal/core/planted_test.go": `package core

import "time"

func waitInTest(d time.Duration) { time.Sleep(d) }
`,
	"internal/core/external_test.go": `package core_test

import "time"

func waitInExternalTest(d time.Duration) { time.Sleep(d) }
`,
	"internal/clean/clean.go": `package clean

import (
	"time"

	"cyclesql/internal/core"
)

func Tick() { core.Wait(time.Millisecond) }
`,
}

// TestLoadPackagesSkipsTests pins the loader the vetcycle binary uses:
// it loads every library package of the module, reads no _test.go file,
// and the suite reports the planted sleep and nothing from the tests.
func TestLoadPackagesSkipsTests(t *testing.T) {
	dir := t.TempDir()
	for name, src := range plantedModule {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := lint.LoadPackages(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.ImportPath)
		for _, f := range pkg.Files {
			if name := pkg.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
				t.Errorf("%s: test file loaded", name)
			}
		}
	}
	if got, want := strings.Join(paths, " "), "cyclesql/internal/clean cyclesql/internal/core"; got != want {
		t.Fatalf("loaded packages %q, want %q", got, want)
	}
	var found []string
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, lint.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			rel, err := filepath.Rel(dir, pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			found = append(found, fmt.Sprintf("%s %s:%d", d.Analyzer, filepath.ToSlash(rel), pos.Line))
		}
	}
	if got, want := strings.Join(found, "; "), "nosleep internal/core/planted.go:6"; got != want {
		t.Fatalf("findings %q, want %q", got, want)
	}
}
