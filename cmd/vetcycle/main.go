// Command vetcycle runs the project's static-analysis suite
// (internal/lint) over Go packages. It works two ways:
//
//	vetcycle ./...                  # standalone, from the module root
//	go vet -vettool=$(which vetcycle) ./...   # as a vet tool
//
// Standalone mode loads packages via `go list -export` and prints one
// finding per line as file:line:col: message (analyzer), exiting 1 when
// anything is reported. Vet-tool mode speaks the cmd/go unitchecker
// protocol: -V=full fingerprints the binary for the build cache, -flags
// advertises the (empty) forwardable flag set, and a lone *.cfg argument
// analyzes the one package described by the JSON config, exiting 2 on
// findings so `go vet` fails the package.
//
// docs/linting.md specifies each analyzer's invariant and how to
// suppress a deliberate finding with a //vetcycle:allow directive.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"strings"

	"cyclesql/internal/lint"
)

func main() {
	// go vet probes the tool with -V=full before anything else; answer
	// before flag.Parse so the probe cannot collide with our own flags.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V=") {
		printVersion(os.Args[1])
		return
	}
	var (
		listFlag  = flag.Bool("list", false, "list the analyzers in the suite and exit")
		flagsFlag = flag.Bool("flags", false, "print a JSON description of forwardable flags (vet protocol) and exit")
		only      = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	)
	flag.Parse()
	switch {
	case *flagsFlag:
		// No flags are forwarded from `go vet` to vetcycle.
		fmt.Println("[]")
		return
	case *listFlag:
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}
	analyzers := lint.All()
	if *only != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*only, ",")...)
		if err != nil {
			fatal(err)
		}
	}
	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnit(args[0], analyzers))
	}
	os.Exit(runStandalone(args, analyzers))
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

// printVersion implements the -V=full fingerprint handshake cmd/go uses
// to cache vet results: the output embeds a content hash of the binary
// so a rebuilt vetcycle invalidates stale cached findings.
func printVersion(arg string) {
	if arg != "-V=full" {
		fmt.Fprintf(os.Stderr, "vetcycle: unsupported flag %s\n", arg)
		os.Exit(1)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fatal(err)
	}
	fmt.Printf("%s version devel vetcycle buildID=%x\n", exe, h.Sum(nil))
}

// runStandalone loads the packages matching patterns from the current
// module and reports findings to stdout. Exit 0 clean, 1 on findings.
func runStandalone(patterns []string, analyzers []*lint.Analyzer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(".", patterns)
	if err != nil {
		fatal(err)
	}
	found := 0
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, analyzers)
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

// unitConfig is the slice of cmd/go's vet config JSON that vetcycle
// consumes; the file is handed to the tool as its sole argument.
type unitConfig struct {
	ID                        string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes the single package described by the vet config file.
// Exit codes follow the unitchecker convention: 0 clean, 1 tool error,
// 2 diagnostics reported.
func runUnit(cfgPath string, analyzers []*lint.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatal(err)
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(fmt.Errorf("parse %s: %w", cfgPath, err))
	}
	// vetcycle exports no facts, but cmd/go insists the output file
	// exists before it will cache the result.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fatal(err)
		}
	}
	if cfg.VetxOnly || len(cfg.GoFiles) == 0 {
		return 0
	}
	fset := token.NewFileSet()
	files, err := lint.ParseAbsFiles(fset, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fatal(err)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if real, ok := cfg.ImportMap[path]; ok {
			path = real
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := lint.TypeCheckFiles(fset, cfg.ImportPath, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fatal(err)
	}
	diags, err := lint.Run(pkg, analyzers)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
