// Command explain runs an arbitrary SQL query against a benchmark
// database and prints the why-provenance and the data-grounded NL
// explanation for one result tuple — the paper's §IV pipeline as a
// standalone tool.
//
// Usage:
//
//	explain -db flight_2 -sql "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'"
//	explain -db world_1 -row 2 -sql "SELECT name FROM country WHERE continent = 'Europe'"
//
// -plan additionally prints the executor's EXPLAIN plan tree — the access
// paths and join strategies the cost-based planner chose, with estimated
// and actual row counts per operator.
//
// SIGINT (^C) or SIGTERM aborts the run cleanly — execution, provenance
// tracking and explanation all honor the cancellation — with exit code
// 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"cyclesql/internal/datasets"
	"cyclesql/internal/explain"
	"cyclesql/internal/provenance"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
)

// fail prints err and exits: 130 when the run was interrupted, 1
// otherwise.
func fail(ctx context.Context, err error) {
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	dbName := flag.String("db", "world_1", "database name")
	sql := flag.String("sql", "", "SQL query to explain")
	row := flag.Int("row", 0, "result row to explain (0-based)")
	polish := flag.Bool("polish", true, "apply the rule-based polishing model")
	showPlan := flag.Bool("plan", false, "print the EXPLAIN plan tree (estimated vs actual rows)")
	flag.Parse()
	if *sql == "" {
		fmt.Fprintln(os.Stderr, "usage: explain -db <name> -sql <query> [-row N]")
		os.Exit(2)
	}
	bench := datasets.Spider()
	db, ok := bench.Databases[*dbName]
	if !ok {
		sci := datasets.Science()
		if db, ok = sci.Databases[*dbName]; !ok {
			fmt.Fprintf(os.Stderr, "unknown database %q\n", *dbName)
			os.Exit(2)
		}
	}
	stmt, err := sqlparse.Parse(*sql)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancel the context; the executor's inner loops, the
	// provenance tracker's rewritten queries and the explainer all honor
	// it, so ^C aborts a pathological query instead of hanging the shell.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	exec := sqleval.New(db)
	if *showPlan {
		tree, err := exec.ExplainPlan(ctx, stmt)
		if err != nil {
			fail(ctx, err)
		}
		fmt.Println("Plan:")
		fmt.Print(tree)
	}
	res, err := exec.Run(ctx, stmt)
	if err != nil {
		fail(ctx, err)
	}
	defer res.Release()
	rel := res.Rel
	fmt.Println("Result:")
	fmt.Println(rel.String())

	prov, err := provenance.NewTracker(db).TrackContext(ctx, stmt, rel, *row)
	if err != nil {
		fail(ctx, err)
	}
	defer prov.Release()
	if prov.Empty {
		fmt.Println("Provenance: none (empty result; operation-level semantics only)")
	}
	for i, part := range prov.Parts {
		fmt.Printf("Provenance part %d (rewritten SQL):\n  %s\n", i+1, part.Rewritten.SQL())
		if part.Table != nil {
			fmt.Println(part.Table.String())
		}
	}
	e := explain.New(db)
	if *polish {
		e.Polish = explain.RulePolisher{}
	}
	exp, err := e.FromProvenance(prov)
	if err != nil {
		fail(ctx, err)
	}
	fmt.Println("Explanation:")
	fmt.Println(" ", exp.Text)
}
