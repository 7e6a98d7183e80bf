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
// schema hides heavy skew, so the syntactic planner's first-come choices
// are measurably bad and the cost-based planner's statistics-driven ones
// measurably good.
//
//   - Ticket (2000 rows): status has 2 distinct values (1000 rows each),
//     tenant has 800 distinct values (~2.5 rows each). A WHERE naming
//     status first tempts the syntactic planner into a 1000-row probe.
//   - Customer (500 rows) / Orders (2000 rows, 4 per customer): score is
//     uniform 0..499, so a range on score is a precise prefilter the
//     syntactic planner refuses on keyed build sides.
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

// planFor compiles-and-runs sql on a fresh executor in the given mode and
// returns its plan tree plus its result relation.
func planFor(t *testing.T, db *storage.Database, sql string, syntactic bool) (*plan.Tree, *sqltypes.Relation) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	ex := sqleval.New(db)
	ex.Syntactic = syntactic
	tree, err := ex.PlanTree(context.Background(), stmt)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	rel, err := ex.ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return tree, rel
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
// keep on skewed data, with hard multipliers the syntactic planner cannot
// meet (measured numbers are recorded in docs/benchmarks.md and
// BENCH_PR10.json):
//
//  1. Probe choice: with WHERE status = .. AND tenant = .., the syntactic
//     planner probes the first-named conjunct (status, 1000 rows); the
//     cost planner must probe tenant and touch >=5x fewer rows.
//  2. Build side: with a selective range on the keyed build side, the
//     syntactic planner keeps index reuse and visits one candidate pair
//     per left row; the cost planner must prefilter the build side and
//     visit >=5x fewer pairs.
//  3. Probe skip: a range covering most of the table must stay a plain
//     scan under the cost planner instead of a worse-than-scan probe.
//
// Every scenario also re-checks result parity, so a "better" plan that
// changes answers can never pass the gate.
func TestPlanQualityGate(t *testing.T) {
	db := skewDB(t)

	t.Run("probe-choice", func(t *testing.T) {
		sql := "SELECT id FROM Ticket WHERE status = 'open' AND tenant = 17 ORDER BY id"
		synTree, synRel := planFor(t, db, sql, true)
		costTree, costRel := planFor(t, db, sql, false)
		if !identical(synRel, costRel) {
			t.Fatalf("results diverge:\n%s\nvs\n%s", synRel, costRel)
		}
		synProbe, costProbe := findNode(synTree, "probe"), findNode(costTree, "probe")
		if synProbe == nil || costProbe == nil {
			t.Fatalf("both planners must probe:\nsyntactic:\n%scost:\n%s",
				synTree.Render(), costTree.Render())
		}
		if !strings.Contains(synProbe.Label, "status") {
			t.Fatalf("syntactic planner no longer probes status — scenario broken:\n%s", synTree.Render())
		}
		if !strings.Contains(costProbe.Label, "tenant") {
			t.Fatalf("cost planner must pick the selective tenant probe:\n%s", costTree.Render())
		}
		if costProbe.ActRows*5 > synProbe.ActRows {
			t.Fatalf("probe flip won only %d vs %d rows, want >=5x fewer",
				costProbe.ActRows, synProbe.ActRows)
		}
		t.Logf("probed rows: syntactic=%d cost=%d (%.0fx)",
			synProbe.ActRows, costProbe.ActRows,
			float64(synProbe.ActRows)/float64(costProbe.ActRows))
	})

	t.Run("build-side", func(t *testing.T) {
		sql := "SELECT O.oid FROM Orders AS O JOIN Customer AS C ON O.cid = C.cid WHERE C.score < 10 ORDER BY O.oid"
		synTree, synRel := planFor(t, db, sql, true)
		costTree, costRel := planFor(t, db, sql, false)
		if !identical(synRel, costRel) {
			t.Fatalf("results diverge:\n%s\nvs\n%s", synRel, costRel)
		}
		synJoin, costJoin := findNode(synTree, "join"), findNode(costTree, "join")
		if synJoin == nil || costJoin == nil {
			t.Fatal("both plans must join")
		}
		if synJoin.Detail != "index build" {
			t.Fatalf("syntactic planner no longer reuses the index — scenario broken:\n%s", synTree.Render())
		}
		if costJoin.Detail != "hash build" || findNode(costTree, "range") == nil {
			t.Fatalf("cost planner must prefilter the build side:\n%s", costTree.Render())
		}
		if costJoin.ActPairs*5 > synJoin.ActPairs {
			t.Fatalf("build-side flip won only %d vs %d pairs, want >=5x fewer",
				costJoin.ActPairs, synJoin.ActPairs)
		}
		t.Logf("candidate pairs: syntactic=%d cost=%d (%.0fx)",
			synJoin.ActPairs, costJoin.ActPairs,
			float64(synJoin.ActPairs)/float64(costJoin.ActPairs))
	})

	t.Run("probe-skip", func(t *testing.T) {
		sql := "SELECT count(*) FROM Customer WHERE score >= 5"
		synTree, synRel := planFor(t, db, sql, true)
		costTree, costRel := planFor(t, db, sql, false)
		if !identical(synRel, costRel) {
			t.Fatalf("results diverge:\n%s\nvs\n%s", synRel, costRel)
		}
		if findNode(synTree, "range") == nil {
			t.Fatalf("syntactic planner no longer range-probes — scenario broken:\n%s", synTree.Render())
		}
		if findNode(costTree, "range") != nil || findNode(costTree, "scan") == nil {
			t.Fatalf("cost planner must skip a probe covering 99%% of the table:\n%s", costTree.Render())
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
