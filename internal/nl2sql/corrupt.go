package nl2sql

import (
	"context"
	"math/rand"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// corruptor generates plausible erroneous translations: single-edit
// mutations of the gold AST that still parse and execute against the
// database — the error classes real NL2SQL models exhibit (wrong
// aggregate, wrong column, wrong operator, wrong value, wrong join key,
// dropped condition, flipped ordering, swapped set operation).
type corruptor struct {
	db  *storage.Database
	rng *rand.Rand
}

// corrupt returns an executable mutation of gold that differs from it
// under EM normalization. It always terminates: after a bounded number of
// attempts it falls back to a trivial-but-valid degradation.
func (c *corruptor) corrupt(gold *sqlast.SelectStmt) *sqlast.SelectStmt {
	goldKey := sqlnorm.Canonical(gold)
	for attempt := 0; attempt < 12; attempt++ {
		mut := gold.Clone()
		op := mutations[c.rng.Intn(len(mutations))]
		if !op(c, mut) {
			continue
		}
		if sqlnorm.Canonical(mut) == goldKey {
			continue
		}
		res, err := sqleval.New(c.db).Run(context.Background(), mut)
		if err != nil {
			continue
		}
		res.Release()
		return mut
	}
	return c.fallback(gold)
}

// fallback degrades the query in a way that is always valid: a count over
// the gold query's first table, or — when that is what the gold already
// computes — a bare projection of the table's first column.
func (c *corruptor) fallback(gold *sqlast.SelectStmt) *sqlast.SelectStmt {
	tables := gold.Core().Tables()
	table := "missing"
	if len(tables) > 0 && tables[0].Name != "" {
		table = tables[0].Name
	}
	core := &sqlast.SelectCore{
		Items: []sqlast.SelectItem{{Expr: &sqlast.FuncCall{Name: "COUNT", Star: true}}},
		From:  &sqlast.FromClause{Base: sqlast.TableRef{Name: table}},
	}
	out := sqlast.Wrap(core)
	if sqlnorm.Canonical(out) != sqlnorm.Canonical(gold) {
		return out
	}
	col := "id"
	if t := c.db.Schema.Table(table); t != nil && len(t.Columns) > 0 {
		col = t.Columns[0].Name
	}
	core.Items = []sqlast.SelectItem{{Expr: sqlast.Col(col)}}
	return out
}

// mutation applies one in-place edit; it returns false when inapplicable.
type mutation func(c *corruptor, stmt *sqlast.SelectStmt) bool

var mutations = []mutation{
	mutateAggregate,
	mutateComparisonOp,
	mutateLiteralValue,
	mutateDropConjunct,
	mutateProjectionColumn,
	mutateDistinct,
	mutateOrderDirection,
	mutateLimit,
	mutateSetOp,
	mutateJoinKey,
	mutateHavingThreshold,
	mutateAggregateToColumn,
}

// mutateAggregate swaps the aggregate function (the paper's Fig 2 error is
// the converse: a count where a projection was wanted).
func mutateAggregate(c *corruptor, stmt *sqlast.SelectStmt) bool {
	core := stmt.Core()
	funcs := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}
	for i := range core.Items {
		if f, ok := core.Items[i].Expr.(*sqlast.FuncCall); ok && f.IsAggregate() {
			if f.Star {
				// count(*) can only become count(DISTINCT col) or a
				// different aggregate over a numeric column; keep simple:
				// flip to a MIN/MAX over the first projectable column.
				cols := numericColumns(c.db, core)
				if len(cols) == 0 {
					return false
				}
				pickCol := cols[c.rng.Intn(len(cols))]
				f.Star = false
				f.Name = pick(c.rng, []string{"SUM", "AVG", "MAX", "MIN"})
				f.Args = []sqlast.Expr{pickCol}
				return true
			}
			next := funcs[c.rng.Intn(len(funcs))]
			if next == f.Name {
				next = funcs[(c.rng.Intn(len(funcs)-1)+1+indexOf(funcs, f.Name))%len(funcs)]
			}
			f.Name = next
			return true
		}
	}
	return false
}

// mutateAggregateToColumn replaces an aggregate projection with its bare
// argument — or wraps a bare projection in count() — reproducing the
// paper's motivating error class exactly.
func mutateAggregateToColumn(c *corruptor, stmt *sqlast.SelectStmt) bool {
	core := stmt.Core()
	for i := range core.Items {
		switch x := core.Items[i].Expr.(type) {
		case *sqlast.FuncCall:
			if x.IsAggregate() && !x.Star && len(x.Args) == 1 {
				core.Items[i].Expr = x.Args[0]
				core.GroupBy = nil
				core.Having = nil
				return true
			}
		case *sqlast.ColumnRef:
			if x.Column != "*" && len(core.GroupBy) == 0 {
				core.Items[i].Expr = &sqlast.FuncCall{Name: "COUNT", Star: true}
				return true
			}
		}
	}
	return false
}

// mutateComparisonOp perturbs a WHERE/HAVING comparison operator (the
// paper's error analysis shows ">= 8000" where "= 8000" was intended).
func mutateComparisonOp(c *corruptor, stmt *sqlast.SelectStmt) bool {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	done := false
	mutate := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(e sqlast.Expr) bool {
			if done {
				return false
			}
			if b, ok := e.(*sqlast.Binary); ok && isComparison(b.Op) {
				if _, isLit := b.R.(*sqlast.Literal); isLit {
					next := ops[c.rng.Intn(len(ops))]
					if next != b.Op {
						b.Op = next
						done = true
					}
				}
			}
			return !done
		})
	}
	core := stmt.Core()
	mutate(core.Where)
	if !done {
		mutate(core.Having)
	}
	return done
}

// mutateLiteralValue swaps a filter constant for a different value from
// the same column's domain (text) or a shifted number.
func mutateLiteralValue(c *corruptor, stmt *sqlast.SelectStmt) bool {
	core := stmt.Core()
	done := false
	sqlast.WalkExpr(core.Where, func(e sqlast.Expr) bool {
		if done {
			return false
		}
		b, ok := e.(*sqlast.Binary)
		if !ok {
			return true
		}
		lit, okR := b.R.(*sqlast.Literal)
		cr, okL := b.L.(*sqlast.ColumnRef)
		if !okR || !okL {
			return true
		}
		switch lit.Value.Kind() {
		case sqltypes.KindInt:
			delta := int64(1 + c.rng.Intn(5))
			if c.rng.Intn(2) == 0 {
				delta = -delta
			}
			b.R = sqlast.Int(lit.Value.Int() + delta)
			done = true
		case sqltypes.KindFloat:
			b.R = sqlast.Lit(sqltypes.NewFloat(lit.Value.Float() * 1.5))
			done = true
		case sqltypes.KindText:
			if alt := c.alternativeValue(core, cr, lit.Value.Text()); alt != "" {
				b.R = sqlast.Text(alt)
				done = true
			}
		}
		return !done
	})
	return done
}

// alternativeValue samples a different value of the same column from the
// stored data, so the corrupted query stays plausible.
func (c *corruptor) alternativeValue(core *sqlast.SelectCore, cr *sqlast.ColumnRef, current string) string {
	for _, ref := range core.Tables() {
		if ref.Name == "" {
			continue
		}
		rel := c.db.Table(ref.Name)
		if rel == nil {
			continue
		}
		idx := rel.ColumnIndex(cr.Column)
		if idx < 0 {
			continue
		}
		// Deterministic scan from a random offset.
		if len(rel.Rows) == 0 {
			continue
		}
		start := c.rng.Intn(len(rel.Rows))
		for k := 0; k < len(rel.Rows); k++ {
			v := rel.Rows[(start+k)%len(rel.Rows)][idx]
			if v.Kind() == sqltypes.KindText && v.Text() != current {
				return v.Text()
			}
		}
	}
	return ""
}

// mutateDropConjunct removes one WHERE conjunct.
func mutateDropConjunct(c *corruptor, stmt *sqlast.SelectStmt) bool {
	core := stmt.Core()
	conj := sqlast.Conjuncts(core.Where)
	if len(conj) < 2 {
		return false
	}
	drop := c.rng.Intn(len(conj))
	conj = append(conj[:drop], conj[drop+1:]...)
	core.Where = sqlast.FromAnd(conj)
	return true
}

// mutateProjectionColumn swaps a projected column for a sibling column of
// the same table.
func mutateProjectionColumn(c *corruptor, stmt *sqlast.SelectStmt) bool {
	core := stmt.Core()
	for i := range core.Items {
		cr, ok := core.Items[i].Expr.(*sqlast.ColumnRef)
		if !ok || cr.Column == "*" {
			continue
		}
		if alt := c.siblingColumn(core, cr); alt != "" {
			cr.Column = alt
			return true
		}
	}
	return false
}

func (c *corruptor) siblingColumn(core *sqlast.SelectCore, cr *sqlast.ColumnRef) string {
	for _, ref := range core.Tables() {
		if ref.Name == "" {
			continue
		}
		t := c.db.Schema.Table(ref.Name)
		if t == nil || t.Column(cr.Column) == nil {
			continue
		}
		if cr.Table != "" && ref.Effective() != cr.Table && ref.Name != cr.Table {
			continue
		}
		names := t.ColumnNames()
		start := c.rng.Intn(len(names))
		for k := 0; k < len(names); k++ {
			cand := names[(start+k)%len(names)]
			if cand != cr.Column {
				return cand
			}
		}
	}
	return ""
}

func mutateDistinct(c *corruptor, stmt *sqlast.SelectStmt) bool {
	core := stmt.Core()
	if core.HasAggregate() {
		return false
	}
	core.Distinct = !core.Distinct
	return true
}

func mutateOrderDirection(c *corruptor, stmt *sqlast.SelectStmt) bool {
	core := stmt.Core()
	if len(core.OrderBy) == 0 {
		return false
	}
	core.OrderBy[0].Desc = !core.OrderBy[0].Desc
	return true
}

func mutateLimit(c *corruptor, stmt *sqlast.SelectStmt) bool {
	core := stmt.Core()
	if core.Limit == nil {
		return false
	}
	n := *core.Limit + int64(1+c.rng.Intn(3))
	core.Limit = &n
	return true
}

func mutateSetOp(c *corruptor, stmt *sqlast.SelectStmt) bool {
	if len(stmt.Ops) == 0 {
		return false
	}
	switch stmt.Ops[0] {
	case sqlast.Intersect:
		stmt.Ops[0] = sqlast.Union
	case sqlast.Union, sqlast.UnionAll:
		stmt.Ops[0] = sqlast.Intersect
	case sqlast.Except:
		stmt.Ops[0] = sqlast.Intersect
	}
	return true
}

// mutateJoinKey swaps one side of a join condition for another column of
// the same table — the paper's "friendid vs studentid" error class.
func mutateJoinKey(c *corruptor, stmt *sqlast.SelectStmt) bool {
	core := stmt.Core()
	if core.From == nil {
		return false
	}
	for ji := range core.From.Joins {
		b, ok := core.From.Joins[ji].On.(*sqlast.Binary)
		if !ok || b.Op != "=" {
			continue
		}
		cr, ok := b.R.(*sqlast.ColumnRef)
		if !ok {
			continue
		}
		// Swap to a sibling integer column when one exists.
		if alt := c.siblingIntColumn(core, cr); alt != "" {
			cr.Column = alt
			return true
		}
	}
	return false
}

func (c *corruptor) siblingIntColumn(core *sqlast.SelectCore, cr *sqlast.ColumnRef) string {
	for _, ref := range core.Tables() {
		if ref.Name == "" || (cr.Table != "" && ref.Effective() != cr.Table && ref.Name != cr.Table) {
			continue
		}
		t := c.db.Schema.Table(ref.Name)
		if t == nil || t.Column(cr.Column) == nil {
			continue
		}
		for _, col := range t.Columns {
			if col.Name != cr.Column && col.Type == sqltypes.KindInt {
				return col.Name
			}
		}
	}
	return ""
}

func mutateHavingThreshold(c *corruptor, stmt *sqlast.SelectStmt) bool {
	core := stmt.Core()
	done := false
	sqlast.WalkExpr(core.Having, func(e sqlast.Expr) bool {
		if done {
			return false
		}
		if b, ok := e.(*sqlast.Binary); ok {
			if lit, ok := b.R.(*sqlast.Literal); ok && lit.Value.Kind() == sqltypes.KindInt {
				b.R = sqlast.Int(lit.Value.Int() + int64(1+c.rng.Intn(2)))
				done = true
			}
		}
		return !done
	})
	return done
}

// numericColumns lists qualified integer columns of the core's tables.
func numericColumns(db *storage.Database, core *sqlast.SelectCore) []*sqlast.ColumnRef {
	var out []*sqlast.ColumnRef
	for _, ref := range core.Tables() {
		if ref.Name == "" {
			continue
		}
		t := db.Schema.Table(ref.Name)
		if t == nil {
			continue
		}
		for _, col := range t.Columns {
			if col.Type == sqltypes.KindInt && !col.PrimaryKey {
				out = append(out, &sqlast.ColumnRef{Table: ref.Effective(), Column: col.Name})
			}
		}
	}
	return out
}

func isComparison(op string) bool {
	switch op {
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

func indexOf(pool []string, s string) int {
	for i, p := range pool {
		if p == s {
			return i
		}
	}
	return 0
}
