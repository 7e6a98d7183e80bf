// Command vetcycle runs the project's static-analysis suite
// (internal/lint) over Go packages of the current module:
//
//	vetcycle ./...      # every package (the default)
//	vetcycle -list      # the analyzers in the suite
//
// It loads packages via `go list -export` and prints one finding per
// line as file:line:col: message (analyzer), exiting 1 when anything is
// reported.
//
// docs/linting.md specifies each analyzer's invariant and how to
// suppress a deliberate finding with a //vetcycle:allow directive.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cyclesql/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "list the analyzers in the suite and exit")
	flag.Parse()
	if *listFlag {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}
	os.Exit(run(flag.Args()))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vetcycle:", err)
	os.Exit(1)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// run loads the packages matching patterns from the current module and
// reports findings to stdout. Exit 0 clean, 1 on findings.
func run(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(".", patterns)
	if err != nil {
		fatal(err)
	}
	found := 0
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, lint.All())
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "vetcycle: %d finding(s)\n", found)
		return 1
	}
	return 0
}
