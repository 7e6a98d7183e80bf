package sqlast

import (
	"testing"

	"cyclesql/internal/sqltypes"
)

func TestBuildersAndRendering(t *testing.T) {
	core := &SelectCore{
		Items: []SelectItem{{Expr: QCol("t1", "name")}},
		From: &FromClause{
			Base: TableRef{Name: "singer", Alias: "t1"},
			Joins: []Join{{
				Type:  InnerJoin,
				Table: TableRef{Name: "song", Alias: "t2"},
				On:    Eq(QCol("t1", "id"), QCol("t2", "singer_id")),
			}},
		},
		Where: And(Eq(QCol("t2", "sales"), Int(100)), nil),
	}
	got := Wrap(core).SQL()
	want := "SELECT t1.name FROM singer AS t1 JOIN song AS t2 ON t1.id = t2.singer_id WHERE t2.sales = 100"
	if got != want {
		t.Fatalf("SQL() = %q\nwant   %q", got, want)
	}
}

func TestAndNilHandling(t *testing.T) {
	e := Eq(Col("a"), Int(1))
	if And(nil, e) != e || And(e, nil) != e {
		t.Fatal("And must pass through nil operands")
	}
	if And(nil, nil) != nil {
		t.Fatal("And(nil, nil) must be nil")
	}
}

func TestConjunctsFlattening(t *testing.T) {
	e := And(And(Eq(Col("a"), Int(1)), Eq(Col("b"), Int(2))), Eq(Col("c"), Int(3)))
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts = %d", len(cs))
	}
	if Conjuncts(nil) != nil {
		t.Fatal("Conjuncts(nil) must be nil")
	}
	// OR is not a conjunction boundary.
	or := &Binary{Op: "OR", L: cs[0], R: cs[1]}
	if len(Conjuncts(or)) != 1 {
		t.Fatal("OR must stay a single conjunct")
	}
}

func TestExprSQLParenthesization(t *testing.T) {
	// a + b * c needs no parens; (a + b) * c does.
	sum := &Binary{Op: "+", L: Col("a"), R: Col("b")}
	prod := &Binary{Op: "*", L: sum, R: Col("c")}
	if got := ExprSQL(prod); got != "(a + b) * c" {
		t.Fatalf("ExprSQL = %q", got)
	}
	prod2 := &Binary{Op: "+", L: Col("a"), R: &Binary{Op: "*", L: Col("b"), R: Col("c")}}
	if got := ExprSQL(prod2); got != "a + b * c" {
		t.Fatalf("ExprSQL = %q", got)
	}
	// Right-associative subtraction keeps parens.
	sub := &Binary{Op: "-", L: Col("a"), R: &Binary{Op: "-", L: Col("b"), R: Col("c")}}
	if got := ExprSQL(sub); got != "a - (b - c)" {
		t.Fatalf("ExprSQL = %q", got)
	}
}

func TestFuncCallRendering(t *testing.T) {
	if got := ExprSQL(&FuncCall{Name: "COUNT", Star: true}); got != "COUNT(*)" {
		t.Fatalf("count star = %q", got)
	}
	if got := ExprSQL(&FuncCall{Name: "COUNT", Distinct: true, Args: []Expr{Col("x")}}); got != "COUNT(DISTINCT x)" {
		t.Fatalf("count distinct = %q", got)
	}
	f := &FuncCall{Name: "SUM", Args: []Expr{Col("x")}}
	if !f.IsAggregate() {
		t.Fatal("SUM must be an aggregate")
	}
	if (&FuncCall{Name: "ABS"}).IsAggregate() {
		t.Fatal("ABS is not an aggregate")
	}
}

func TestPredicateRendering(t *testing.T) {
	cases := map[Expr]string{
		&InExpr{X: Col("a"), List: []Expr{Int(1), Int(2)}}:    "a IN (1, 2)",
		&InExpr{X: Col("a"), Not: true, List: []Expr{Int(1)}}: "a NOT IN (1)",
		&LikeExpr{X: Col("n"), Pattern: Text("B%")}:           "n LIKE 'B%'",
		&BetweenExpr{X: Col("d"), Lo: Int(1), Hi: Int(5)}:     "d BETWEEN 1 AND 5",
		&IsNullExpr{X: Col("f")}:                              "f IS NULL",
		&IsNullExpr{X: Col("f"), Not: true}:                   "f IS NOT NULL",
		&Unary{Op: "NOT", X: Eq(Col("a"), Int(1))}:            "NOT (a = 1)",
	}
	for e, want := range cases {
		if got := ExprSQL(e); got != want {
			t.Errorf("ExprSQL = %q want %q", got, want)
		}
	}
}

func TestLiteralRendering(t *testing.T) {
	if got := ExprSQL(Text("O'Hare")); got != "'O''Hare'" {
		t.Fatalf("escaped text = %q", got)
	}
	if got := ExprSQL(Lit(sqltypes.Null())); got != "NULL" {
		t.Fatalf("null = %q", got)
	}
}

func TestTableRefEffective(t *testing.T) {
	if (TableRef{Name: "t", Alias: "a"}).Effective() != "a" {
		t.Fatal("alias wins")
	}
	if (TableRef{Name: "t"}).Effective() != "t" {
		t.Fatal("name fallback")
	}
}

func TestWalkExprPruning(t *testing.T) {
	e := And(Eq(Col("a"), Int(1)), Eq(Col("b"), Int(2)))
	visits := 0
	WalkExpr(e, func(Expr) bool { visits++; return false })
	if visits != 1 {
		t.Fatalf("pruned walk visited %d nodes", visits)
	}
	all := 0
	WalkExpr(e, func(Expr) bool { all++; return true })
	if all != 7 { // AND, two =, two cols, two literals
		t.Fatalf("full walk visited %d nodes", all)
	}
}

func TestHasAggregate(t *testing.T) {
	with := &SelectCore{Items: []SelectItem{{Expr: &FuncCall{Name: "COUNT", Star: true}}}}
	if !with.HasAggregate() {
		t.Fatal("count must flag aggregate")
	}
	without := &SelectCore{Items: []SelectItem{{Expr: Col("a")}}}
	if without.HasAggregate() {
		t.Fatal("plain projection is not aggregated")
	}
	havingOnly := &SelectCore{Items: []SelectItem{{Expr: Col("a")}}, Having: Eq(Col("x"), Int(1))}
	if !havingOnly.HasAggregate() {
		t.Fatal("HAVING implies grouping")
	}
}

func TestCompoundSQL(t *testing.T) {
	stmt := &SelectStmt{
		Cores: []*SelectCore{
			{Items: []SelectItem{{Expr: Col("a")}}, From: &FromClause{Base: TableRef{Name: "t"}}},
			{Items: []SelectItem{{Expr: Col("b")}}, From: &FromClause{Base: TableRef{Name: "u"}}},
		},
		Ops: []CompoundOp{Intersect},
	}
	if got := stmt.SQL(); got != "SELECT a FROM t INTERSECT SELECT b FROM u" {
		t.Fatalf("compound SQL = %q", got)
	}
}

func TestCloneExprNil(t *testing.T) {
	if CloneExpr(nil) != nil {
		t.Fatal("CloneExpr(nil) must be nil")
	}
}

func TestSelectItemSQL(t *testing.T) {
	if got := (SelectItem{Star: true}).SQL(); got != "*" {
		t.Fatalf("star = %q", got)
	}
	if got := (SelectItem{Star: true, TableStar: "t1"}).SQL(); got != "t1.*" {
		t.Fatalf("table star = %q", got)
	}
	if got := (SelectItem{Expr: Col("x"), Alias: "y"}).SQL(); got != "x AS y" {
		t.Fatalf("aliased = %q", got)
	}
}
