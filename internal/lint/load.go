package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// typeCheck parses the given files (already parsed ASTs) as one package
// and type-checks them with imp, returning the package and full use/def
// information. Any type error aborts: analyzers must not run over a
// half-checked package.
func typeCheck(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	return pkg, info, nil
}

// parseDir parses every listed file in dir into fset, comments included.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// goFilesIn lists the non-test .go files of dir in lexical order.
func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// listedPackage is the slice of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// LoadPackages loads the module packages matching patterns (e.g. "./...")
// for analysis. Dependencies are imported from gc export data produced by
// `go list -export`, so no package is type-checked from source more than
// once and no network or module download is involved; the target packages
// themselves are parsed and type-checked from source with comments, which
// is what the analyzers inspect.
func LoadPackages(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json=ImportPath,Dir,Name,GoFiles,Export,DepOnly,Standard,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, errBuf.String())
	}
	exports := make(map[string]string) // import path -> export data file
	var targets []*listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			pc := p
			targets = append(targets, &pc)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files, err := parseFiles(fset, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		tpkg, info, err := typeCheck(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &Package{
			Fset:       fset,
			Files:      files,
			ImportPath: t.ImportPath,
			Types:      tpkg,
			TypesInfo:  info,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// ParseAbsFiles parses the given absolute file paths into fset, comments
// included. cmd/vetcycle uses it in vet-tool mode, where the config lists
// the package's files by absolute path.
func ParseAbsFiles(fset *token.FileSet, paths []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// TypeCheckFiles type-checks one package's parsed files against imp and
// wraps the result as a Package ready for Run.
func TypeCheckFiles(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer) (*Package, error) {
	tpkg, info, err := typeCheck(fset, importPath, files, imp)
	if err != nil {
		return nil, err
	}
	return &Package{
		Fset:       fset,
		Files:      files,
		ImportPath: importPath,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// sourceImporter resolves imports for GOPATH-style fixture trees: an
// import path present under root (root/<path>/*.go) is parsed and
// type-checked from source recursively; anything else is treated as
// standard library and delegated to the compiler source importer. The
// linttest harness uses it so analyzer fixtures can stub in-module
// packages (testdata/src/cyclesql/internal/storage, ...) under their real
// import paths.
type sourceImporter struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*types.Package
	stack map[string]bool
}

func newSourceImporter(root string, fset *token.FileSet) *sourceImporter {
	return &sourceImporter{
		root:  root,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		cache: make(map[string]*types.Package),
		stack: make(map[string]bool),
	}
}

func (si *sourceImporter) dir(path string) string {
	return filepath.Join(si.root, filepath.FromSlash(path))
}

func (si *sourceImporter) local(path string) bool {
	st, err := os.Stat(si.dir(path))
	return err == nil && st.IsDir()
}

func (si *sourceImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := si.cache[path]; ok {
		return pkg, nil
	}
	if !si.local(path) {
		return si.std.Import(path)
	}
	if si.stack[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	si.stack[path] = true
	defer delete(si.stack, path)
	pkg, _, _, err := si.load(path)
	if err != nil {
		return nil, err
	}
	si.cache[path] = pkg
	return pkg, nil
}

// load parses and type-checks the fixture package at path.
func (si *sourceImporter) load(path string) (*types.Package, *types.Info, []*ast.File, error) {
	dir := si.dir(path)
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(names) == 0 {
		return nil, nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	files, err := parseFiles(si.fset, dir, names)
	if err != nil {
		return nil, nil, nil, err
	}
	pkg, info, err := typeCheck(si.fset, path, files, si)
	if err != nil {
		return nil, nil, nil, err
	}
	return pkg, info, files, nil
}

// LoadSource loads the package at import path pkgPath from a GOPATH-style
// source tree rooted at root (root/<import path>/*.go). In-tree imports
// resolve from the same tree; everything else must be standard library.
func LoadSource(root, pkgPath string) (*Package, error) {
	fset := token.NewFileSet()
	si := newSourceImporter(root, fset)
	if !si.local(pkgPath) {
		return nil, fmt.Errorf("lint: no package %q under %s", pkgPath, root)
	}
	si.stack[pkgPath] = true
	tpkg, info, files, err := si.load(pkgPath)
	delete(si.stack, pkgPath)
	if err != nil {
		return nil, err
	}
	si.cache[pkgPath] = tpkg
	return &Package{
		Fset:       fset,
		Files:      files,
		ImportPath: pkgPath,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}
