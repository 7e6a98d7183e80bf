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
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

var updatePlans = flag.Bool("update", false, "rewrite the golden plan snapshots")

// TestPlanParity executes every Spider dev gold query (all 270, no slice
// cap) through the cost-based planner, the index-free executor, and the
// nested-loop executor (which also re-runs every subquery per outer row
// instead of memoising the uncorrelated ones), and requires bit-identical
// relations; an owned run (Executor.Run), whose storage is recycled from
// the queries before it, must return the same relation. This is the
// acceptance bar for cost-based planning: the
// planner may only change HOW rows are found, never WHICH rows come back
// or in what order. The sqlgen half of the bar runs the same three legs
// through runBoth (TestRandomizedPredicateParity, TestRandomizedJoinParity:
// 480 randomized queries over mixed-kind data).
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
		noIdx, err := sqleval.NewIndexFree(db).ExecContext(context.Background(), ex.Gold)
		if err != nil {
			t.Fatalf("index-free path %q: %v", ex.GoldSQL, err)
		}
		perRow, err := sqleval.NewNestedLoop(db).ExecContext(context.Background(), ex.Gold)
		if err != nil {
			t.Fatalf("nested-loop path %q: %v", ex.GoldSQL, err)
		}
		if !identical(cost, noIdx) {
			t.Fatalf("cost planner and index-free path diverge for %q:\ncost:\n%s\nscan:\n%s",
				ex.GoldSQL, cost, noIdx)
		}
		if !identical(cost, perRow) {
			t.Fatalf("cost planner and nested-loop path diverge for %q:\ncost:\n%s\nnested loop:\n%s",
				ex.GoldSQL, cost, perRow)
		}
		// An owned run, in storage recycled from the queries before it,
		// returns the same relation.
		owned, err := sqleval.New(db).Run(context.Background(), ex.Gold)
		if err != nil {
			t.Fatalf("owned run %q: %v", ex.GoldSQL, err)
		}
		if !identical(cost, owned.Rel) {
			t.Fatalf("owned run diverges for %q:\ncost:\n%s\nowned:\n%s", ex.GoldSQL, cost, owned.Rel)
		}
		owned.Release()
	}
}

// TestLimitParityDev applies LimitParity to every Spider dev gold query
// without ORDER BY, DISTINCT or grouping: with LIMIT 0, 1 and 3, every
// plan leg must return the first rows of the unlimited run.
func TestLimitParityDev(t *testing.T) {
	bench := datasets.Spider()
	checked := 0
	for _, ex := range bench.Dev {
		if sqleval.LimitParity(t, bench.DB(ex.DBName), ex.GoldSQL) {
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d dev queries qualified for the LIMIT parity check", checked)
	}
	t.Logf("checked %d dev queries", checked)
}

// TestIndexFreeModesBuildNoIndex runs every Spider dev gold query through
// the index-free and nested-loop executors, each over a fresh clone of its
// database, and requires that no column index or sorted index exists
// afterwards: outside cost mode the compiler must not read statistics,
// because ColStats and the key-distinct estimate build indexes as a side
// effect.
func TestIndexFreeModesBuildNoIndex(t *testing.T) {
	bench := datasets.Spider()
	if len(bench.Dev) < 270 {
		t.Fatalf("dev set shrank: %d examples", len(bench.Dev))
	}
	for _, ex := range bench.Dev {
		for _, leg := range []struct {
			name string
			new  func(*storage.Database) *sqleval.Executor
		}{
			{"index-free", sqleval.NewIndexFree},
			{"nested-loop", sqleval.NewNestedLoop},
		} {
			db := bench.DB(ex.DBName).Clone()
			if _, err := leg.new(db).ExecContext(context.Background(), ex.Gold); err != nil {
				t.Fatalf("%s path %q: %v", leg.name, ex.GoldSQL, err)
			}
			for _, tbl := range db.Schema.Tables {
				for col := range tbl.Columns {
					if db.HasIndex(tbl.Name, col) || db.HasSorted(tbl.Name, col) {
						t.Fatalf("%s path built an index on %s.%s for %q",
							leg.name, tbl.Name, tbl.Columns[col].Name, ex.GoldSQL)
					}
				}
			}
		}
	}
}

func identical(a, b *sqltypes.Relation) bool {
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		return false
	}
	for i, c := range a.Columns {
		if b.Columns[i] != c {
			return false
		}
	}
	for ri, row := range a.Rows {
		for ci, v := range row {
			if sqltypes.Compare(v, b.Rows[ri][ci]) != 0 {
				return false
			}
		}
	}
	return true
}

// TestPlanGolden pins the cost-based planner's EXPLAIN output for every
// Spider dev gold query against golden snapshots, one file per database
// under testdata/plans. Any plan change — a different probe, a flipped
// build side, a streamed ordering, a shifted estimate — shows up as a textual
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
