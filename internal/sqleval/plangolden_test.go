package sqleval_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/sqleval"
)

var updatePlans = flag.Bool("update", false, "rewrite the golden plan snapshots")

// TestPlanParity executes every Spider dev gold query (all 270, no slice
// cap) through the cost-based planner, the pre-statistics syntactic
// planner, the index-free executor, and the nested-loop executor (which
// also re-runs every subquery per outer row instead of memoising the
// uncorrelated ones), and requires bit-identical relations. This is the acceptance bar for cost-based planning: the
// planner may only change HOW rows are found, never WHICH rows come back
// or in what order. The sqlgen half of the bar lives in
// TestPlanParitySQLGen (480 randomized queries over mixed-kind data).
func TestPlanParity(t *testing.T) {
	bench := datasets.Spider()
	if len(bench.Dev) < 270 {
		t.Fatalf("dev set shrank: %d examples", len(bench.Dev))
	}
	for _, ex := range bench.Dev {
		db := bench.DB(ex.DBName)
		cost, err := sqleval.New(db).ExecContext(context.Background(), ex.Gold)
		if err != nil {
			t.Fatalf("cost planner %q: %v", ex.GoldSQL, err)
		}
		synEx := sqleval.New(db)
		synEx.Syntactic = true
		syntactic, err := synEx.ExecContext(context.Background(), ex.Gold)
		if err != nil {
			t.Fatalf("syntactic planner %q: %v", ex.GoldSQL, err)
		}
		scan := sqleval.New(db)
		scan.NoIndexes = true
		noIdx, err := scan.ExecContext(context.Background(), ex.Gold)
		if err != nil {
			t.Fatalf("index-free path %q: %v", ex.GoldSQL, err)
		}
		nl := sqleval.New(db)
		nl.NestedLoopOnly = true
		perRow, err := nl.ExecContext(context.Background(), ex.Gold)
		if err != nil {
			t.Fatalf("nested-loop path %q: %v", ex.GoldSQL, err)
		}
		if !identical(cost, syntactic) {
			t.Fatalf("cost and syntactic planners diverge for %q:\ncost:\n%s\nsyntactic:\n%s",
				ex.GoldSQL, cost, syntactic)
		}
		if !identical(cost, noIdx) {
			t.Fatalf("cost planner and index-free path diverge for %q:\ncost:\n%s\nscan:\n%s",
				ex.GoldSQL, cost, noIdx)
		}
		if !identical(cost, perRow) {
			t.Fatalf("cost planner and nested-loop path diverge for %q:\ncost:\n%s\nnested loop:\n%s",
				ex.GoldSQL, cost, perRow)
		}
	}
}

// TestPlanGolden pins the cost-based planner's EXPLAIN output for every
// Spider dev gold query against golden snapshots, one file per database
// under testdata/plans. Any plan change — a different probe, a flipped
// build side, a reordered join, a shifted estimate — shows up as a textual
// diff and fails CI until deliberately regenerated with
//
//	go test ./internal/sqleval -run TestPlanGolden -update
//
// The snapshots double as documentation: they are the complete record of
// what the planner chooses on the benchmark workload.
func TestPlanGolden(t *testing.T) {
	bench := datasets.Spider()
	byDB := make(map[string][]datasets.Example)
	for _, ex := range bench.Dev {
		byDB[ex.DBName] = append(byDB[ex.DBName], ex)
	}
	names := make([]string, 0, len(byDB))
	for name := range byDB {
		names = append(names, name)
	}
	sort.Strings(names)

	total := 0
	for _, name := range names {
		exs := byDB[name]
		db := bench.DB(name)
		ex := sqleval.New(db)
		var b strings.Builder
		for qi, e := range exs {
			plan, err := ex.ExplainPlan(context.Background(), e.Gold)
			if err != nil {
				t.Fatalf("%s q%d %q: %v", name, qi, e.GoldSQL, err)
			}
			fmt.Fprintf(&b, "-- q%d: %s\n%s\n", qi, e.GoldSQL, plan)
			total++
		}
		golden := filepath.Join("testdata", "plans", name+".golden")
		if *updatePlans {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden %s (regenerate with -update): %v", golden, err)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("plan snapshot drift for %s: regenerate with -update if deliberate\n%s",
				name, firstDiff(got, string(want)))
		}
	}
	if total < 270 {
		t.Fatalf("only %d plans snapshotted, want all 270 dev queries", total)
	}
}

// firstDiff renders the first few differing lines of two snapshots, enough
// to see which query's plan moved without dumping whole files.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g == w {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  got:  %s\n  want: %s\n", i+1, g, w)
		if shown++; shown >= 5 {
			b.WriteString("  ...\n")
			break
		}
	}
	return b.String()
}
