package sqleval_test

import (
	"context"
	"strings"
	"testing"

	"cyclesql/internal/plan"
	"cyclesql/internal/schema"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// skewDB builds the plan-quality workload: data whose uniform-looking
// schema hides heavy skew, so an access path picked without statistics is
// measurably bad and the cost-based planner's choice measurably good.
//
//   - Ticket (2000 rows): status has 2 distinct values (1000 rows each),
//     tenant has 800 distinct values (~2.5 rows each). Probing status
//     reads 1000 rows; probing tenant reads 3.
//   - Customer (500 rows) / Orders (2000 rows, 4 per customer): score is
//     uniform 0..499, so a range on score is a precise prefilter of the
//     keyed Customer build side; reusing its full cid index instead visits
//     one candidate pair per Orders row.
func skewDB(t testing.TB) *storage.Database {
	t.Helper()
	s := &schema.Schema{
		Name: "skew",
		Tables: []*schema.Table{
			{Name: "Ticket", Columns: []schema.Column{
				{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "status", Type: sqltypes.KindText},
				{Name: "tenant", Type: sqltypes.KindInt},
			}},
			{Name: "Customer", Columns: []schema.Column{
				{Name: "cid", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "score", Type: sqltypes.KindInt},
			}},
			{Name: "Orders", Columns: []schema.Column{
				{Name: "oid", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "cid", Type: sqltypes.KindInt},
			}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(s)
	statuses := []string{"open", "closed"}
	for i := int64(0); i < 2000; i++ {
		db.MustInsert("Ticket", sqltypes.NewInt(i),
			sqltypes.NewText(statuses[i%2]), sqltypes.NewInt(i%800))
	}
	for i := int64(0); i < 500; i++ {
		db.MustInsert("Customer", sqltypes.NewInt(i), sqltypes.NewInt(i))
	}
	for i := int64(0); i < 2000; i++ {
		db.MustInsert("Orders", sqltypes.NewInt(i), sqltypes.NewInt(i%500))
	}
	return db
}

// planFor plans sql through a fresh cost-based executor, requires its
// result to equal the index-free executor's, and returns the plan tree.
func planFor(t *testing.T, db *storage.Database, sql string) *plan.Tree {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	ex := sqleval.New(db)
	tree, err := ex.PlanTree(context.Background(), stmt)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	rel, err := ex.ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	ref, err := sqleval.NewIndexFree(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatalf("index-free exec %q: %v", sql, err)
	}
	if !identical(rel, ref) {
		t.Fatalf("results diverge for %q:\ncost:\n%s\nindex-free:\n%s", sql, rel, ref)
	}
	return tree
}

// nodesOf flattens a plan tree pre-order.
func nodesOf(n *plan.Node) []*plan.Node {
	out := []*plan.Node{n}
	for _, c := range n.Children {
		out = append(out, nodesOf(c)...)
	}
	return out
}

func findNode(tree *plan.Tree, kind string) *plan.Node {
	for _, n := range nodesOf(tree.Root) {
		if n.Kind == kind {
			return n
		}
	}
	return nil
}

// TestPlanQualityGate is the CI gate proving cost-based planning earns its
// keep on skewed data, with hard multipliers over baselines read off
// skewDB itself (measured numbers are recorded in docs/benchmarks.md and
// BENCH_PR10.json):
//
//  1. Probe choice: with WHERE status = .. AND tenant = .., probing status
//     would read every open ticket; the cost planner must probe tenant and
//     touch >=5x fewer rows.
//  2. Build side: with a selective range on the keyed build side, reusing
//     the full index would visit one candidate pair per Orders row; the
//     cost planner must prefilter the build side and visit >=5x fewer
//     pairs.
//  3. Probe skip: a range covering most of the table must stay a plain
//     scan under the cost planner instead of a worse-than-scan probe.
//
// planFor re-checks result parity against the index-free executor, so a
// "better" plan that changes answers can never pass the gate.
func TestPlanQualityGate(t *testing.T) {
	db := skewDB(t)

	t.Run("probe-choice", func(t *testing.T) {
		var open int64
		for _, row := range db.Table("Ticket").Rows {
			if row[1].Text() == "open" {
				open++
			}
		}
		tree := planFor(t, db, skewProbeSQL)
		probe := findNode(tree, "probe")
		if probe == nil || !strings.Contains(probe.Label, "tenant") {
			t.Fatalf("cost planner must pick the selective tenant probe:\n%s", tree.Render())
		}
		if probe.ActRows*5 > open {
			t.Fatalf("tenant probe read %d rows vs %d open tickets, want >=5x fewer",
				probe.ActRows, open)
		}
		t.Logf("probed rows: status=%d tenant=%d (%.0fx)",
			open, probe.ActRows, float64(open)/float64(probe.ActRows))
	})

	t.Run("build-side", func(t *testing.T) {
		// cid is Customer's primary key, so index reuse pairs each Orders
		// row with exactly one Customer row.
		reusePairs := int64(db.NumRows("Orders"))
		tree := planFor(t, db, skewBuildSQL)
		join := findNode(tree, "join")
		if join == nil || join.Detail != "hash build" || findNode(tree, "range") == nil {
			t.Fatalf("cost planner must prefilter the build side:\n%s", tree.Render())
		}
		if join.ActPairs*5 > reusePairs {
			t.Fatalf("prefiltered join visited %d pairs vs %d under index reuse, want >=5x fewer",
				join.ActPairs, reusePairs)
		}
		t.Logf("candidate pairs: index reuse=%d prefiltered=%d (%.0fx)",
			reusePairs, join.ActPairs, float64(reusePairs)/float64(join.ActPairs))
	})

	t.Run("probe-skip", func(t *testing.T) {
		tree := planFor(t, db, "SELECT count(*) FROM Customer WHERE score >= 5")
		if findNode(tree, "range") != nil || findNode(tree, "scan") == nil {
			t.Fatalf("cost planner must skip a probe covering 99%% of the table:\n%s", tree.Render())
		}
	})
}

// TestPlanCacheLiteralSelectivity pins how cost-based plans interact with
// the plan cache. sqlnorm.CacheKey canonicalizes a statement WITH its
// literals, so two spellings of one query share a key — and a plan — only
// when their literals are identical, which makes sharing always sound:
// there is no normalized-away literal whose selectivity could differ
// between key-sharers. The flip side, pinned here, is that the same query
// shape with different literals gets a different key and is costed
// independently — a selective range keeps its probe while a near-total
// range of the same shape compiles to a scan, through one executor's
// live cache.
func TestPlanCacheLiteralSelectivity(t *testing.T) {
	db := skewDB(t)
	narrow := "SELECT count(*) FROM Customer WHERE score < 10"
	wide := "SELECT count(*) FROM Customer WHERE score < 490"

	sNarrow, err := sqlparse.Parse(narrow)
	if err != nil {
		t.Fatal(err)
	}
	sWide, err := sqlparse.Parse(wide)
	if err != nil {
		t.Fatal(err)
	}
	if sqlnorm.CacheKey(sNarrow) == sqlnorm.CacheKey(sWide) {
		t.Fatal("different literals must never share a cache key")
	}

	ex := sqleval.New(db)
	// Warm the cache with the narrow plan, then plan the wide query through
	// the same executor: it must not inherit the narrow query's probe.
	if _, err := ex.ExecContext(context.Background(), sNarrow); err != nil {
		t.Fatal(err)
	}
	narrowTree, err := ex.PlanTree(context.Background(), sNarrow)
	if err != nil {
		t.Fatal(err)
	}
	wideTree, err := ex.PlanTree(context.Background(), sWide)
	if err != nil {
		t.Fatal(err)
	}
	if findNode(narrowTree, "range") == nil {
		t.Fatalf("selective range must probe:\n%s", narrowTree.Render())
	}
	if findNode(wideTree, "range") != nil {
		t.Fatalf("near-total range must not reuse the selective plan's probe:\n%s", wideTree.Render())
	}

	// Same literals as distinct ASTs share one key — and must agree on
	// results through the shared cached plan.
	sNarrow2, err := sqlparse.Parse(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if sqlnorm.CacheKey(sNarrow) != sqlnorm.CacheKey(sNarrow2) {
		t.Fatal("identical SQL must share a cache key across ASTs")
	}
	r1, err := ex.ExecContext(context.Background(), sNarrow)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ex.ExecContext(context.Background(), sNarrow2)
	if err != nil {
		t.Fatal(err)
	}
	if !identical(r1, r2) {
		t.Fatalf("cache-sharing ASTs diverge:\n%s\nvs\n%s", r1, r2)
	}
}
