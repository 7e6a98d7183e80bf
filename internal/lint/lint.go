// Package lint is the project's static-analysis suite: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus the seven project-specific
// analyzers that turn ARCHITECTURE.md's prose invariants — context
// threading, frozen-snapshot immutability, no reads of released results,
// typed stage errors, lock discipline, bounded caches, no raw sleeps —
// into machine-checked rules. cmd/vetcycle packages the suite as a
// multichecker binary; docs/linting.md specifies each invariant.
//
// The framework is stdlib-only by design: the build environment bakes in
// no module dependencies, so analyzers run on go/ast + go/types directly.
// Packages are loaded either from `go list -export` output (the vetcycle
// binary, over the real module) or from GOPATH-style testdata trees (the
// linttest fixture harness). The x/tools surface is mirrored closely
// enough that a future migration to the real framework is mechanical.
//
// Analyzers check library code only: files named *_test.go and external
// test packages are skipped, because the invariants govern what ships —
// tests deliberately poke at sleeps and raw maps.
//
// A finding that is deliberate is suppressed in source with a directive
// comment on the offending line or the line above it:
//
//	//vetcycle:allow ctxflow -- nil-ctx guard for legacy callers
//
// The directive names one or more analyzers (comma-separated); everything
// after "--" is a required human-readable justification. Directives
// without a justification are themselves reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string // analyzer name, filled in by Run
	Message  string
}

// Analyzer is one named invariant check. Run inspects a type-checked
// package through the Pass and reports findings; it must not mutate the
// package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through one analyzer, mirroring
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset       *token.FileSet
	Files      []*ast.File
	ImportPath string
	Types      *types.Package
	TypesInfo  *types.Info
}

// All returns the full vetcycle suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxFlow,
		StageErr,
		SnapFrozen,
		Released,
		LockOrder,
		NoSleep,
		BoundedCache,
	}
}

// ByName resolves a subset of the suite by analyzer name.
func ByName(names ...string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to pkg and returns the surviving diagnostics
// in source order: findings in _test.go files are dropped (the suite
// governs library code), and findings silenced by a well-formed
// //vetcycle:allow directive are filtered out. Malformed directives
// (no justification, unknown analyzer) are reported as findings in their
// own right so a suppression cannot rot silently.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if strings.HasSuffix(pkg.Types.Name(), "_test") {
		return nil, nil
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	allow, bad := collectDirectives(pkg)
	diags = append(diags, bad...)
	kept := diags[:0]
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		if allow.covers(pos, d.Analyzer) {
			continue
		}
		kept = append(kept, d)
	}
	diags = kept
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// directiveRE matches //vetcycle:allow name[,name...] [-- justification].
var directiveRE = regexp.MustCompile(`^//vetcycle:allow\s+([a-z0-9_,]+)\s*(?:--\s*(.*))?$`)

// allowSet maps (file, line) to the analyzer names allowed there. A
// directive covers its own line and the line below it, so it can trail
// the offending statement or sit on a comment line immediately above.
type allowSet map[string]map[int]map[string]bool

func (s allowSet) covers(pos token.Position, analyzer string) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][analyzer] || lines[pos.Line][allowAll]
}

const allowAll = "*"

// collectDirectives scans pkg's comments for //vetcycle:allow directives,
// returning the allow set plus diagnostics for malformed ones.
func collectDirectives(pkg *Package) (allowSet, []Diagnostic) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	allow := make(allowSet)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//vetcycle:") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				text := c.Text
				// Fixtures stack a "// want" expectation onto the directive
				// line; it is not part of the directive.
				if i := strings.Index(text[2:], "// want "); i >= 0 {
					text = strings.TrimRight(text[:i+2], " \t")
				}
				m := directiveRE.FindStringSubmatch(text)
				if m == nil {
					bad = append(bad, Diagnostic{Pos: c.Pos(), Analyzer: "directive",
						Message: "malformed //vetcycle: directive; use //vetcycle:allow name[,name] -- justification"})
					continue
				}
				if strings.TrimSpace(m[2]) == "" {
					bad = append(bad, Diagnostic{Pos: c.Pos(), Analyzer: "directive",
						Message: "//vetcycle:allow needs a justification after --"})
					continue
				}
				names := strings.Split(m[1], ",")
				for _, n := range names {
					if n != allowAll && !known[n] {
						bad = append(bad, Diagnostic{Pos: c.Pos(), Analyzer: "directive",
							Message: fmt.Sprintf("//vetcycle:allow names unknown analyzer %q", n)})
					}
				}
				lines := allow[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					allow[pos.Filename] = lines
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := lines[line]
					if set == nil {
						set = make(map[string]bool)
						lines[line] = set
					}
					for _, n := range names {
						set[n] = true
					}
				}
			}
		}
	}
	return allow, bad
}
