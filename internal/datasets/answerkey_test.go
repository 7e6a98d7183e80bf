package datasets_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// The benchmark generator's vocabulary, Spider-DK's domain knowledge
// included, is the answer key. The packages that explain and judge a
// translation must never see it.
var answerKeyFree = []string{
	"cyclesql/internal/nli",
	"cyclesql/internal/explain",
	"cyclesql/internal/annotate",
	"cyclesql/internal/provgraph",
	"cyclesql/internal/textproc",
}

const answerKey = "cyclesql/internal/datasets"

// TestNoAnswerKeyImports fails if the non-test files of an answer-key-free
// package import internal/datasets, directly or through other packages of
// the module.
func TestNoAnswerKeyImports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// via maps each module package reached to the package that imported it.
	via := map[string]string{}
	var visit func(path string)
	visit = func(path string) {
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, "cyclesql/")))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, "cyclesql/") {
				continue
			}
			if _, seen := via[imp]; seen {
				continue
			}
			via[imp] = path
			visit(imp)
		}
	}
	for _, pkg := range answerKeyFree {
		clear(via)
		visit(pkg)
		if _, ok := via[answerKey]; ok {
			chain := []string{answerKey}
			for p := answerKey; p != pkg; p = via[p] {
				chain = append(chain, via[p])
			}
			t.Errorf("%s imports the answer key: %s", pkg, strings.Join(chain, " <- "))
		}
	}
}
