package nl2sql

import (
	"context"
	"math/rand"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// styleVariant rewrites a correct statement into an execution-equivalent
// but EM-different surface form — the signature of LLMs that were never
// fine-tuned on the benchmark's canonical SQL style (paper §V-A2: GPT-3.5
// scores 72.8 EX but only 43.8 EM; CHESS emits count(id) for count(*)).
// Real LLMs copy literal values from the question verbatim, so the
// transforms preserve literals; execution equivalence on the given
// database is verified, falling back to the original on any divergence.
func styleVariant(db *storage.Database, stmt *sqlast.SelectStmt, rng *rand.Rand) *sqlast.SelectStmt {
	out := stmt.Clone()
	transforms := []func() bool{
		func() bool { return countStarToCountPK(db, out) },
		func() bool { return eqToIn(out) },
	}
	applied := false
	start := rng.Intn(len(transforms))
	for k := 0; k < len(transforms) && !applied; k++ {
		applied = transforms[(start+k)%len(transforms)]()
	}
	if !applied {
		return stmt
	}
	if !sameExecution(db, stmt, out) {
		return stmt
	}
	return out
}

// countStarToCountPK rewrites COUNT(*) as COUNT(pk) — identical results on
// NOT NULL primary keys but a different EM shape (the CHESS quirk).
func countStarToCountPK(db *storage.Database, stmt *sqlast.SelectStmt) bool {
	core := stmt.Core()
	tables := core.Tables()
	if len(tables) == 0 || tables[0].Name == "" {
		return false
	}
	t := db.Schema.Table(tables[0].Name)
	if t == nil {
		return false
	}
	pks := t.PrimaryKeys()
	if len(pks) == 0 {
		return false
	}
	for i := range core.Items {
		if f, ok := core.Items[i].Expr.(*sqlast.FuncCall); ok && f.Name == "COUNT" && f.Star {
			f.Star = false
			f.Args = []sqlast.Expr{&sqlast.ColumnRef{Table: tables[0].Effective(), Column: pks[0]}}
			return true
		}
	}
	return false
}

// eqToIn rewrites "col = 'v'" into "col IN ('v')": same predicate, same
// literal, different EM structure.
func eqToIn(stmt *sqlast.SelectStmt) bool {
	core := stmt.Core()
	conj := sqlast.Conjuncts(core.Where)
	for i, c := range conj {
		b, ok := c.(*sqlast.Binary)
		if !ok || b.Op != "=" {
			continue
		}
		cr, okL := b.L.(*sqlast.ColumnRef)
		lit, okR := b.R.(*sqlast.Literal)
		if !okL || !okR || lit.Value.Kind() != sqltypes.KindText {
			continue
		}
		conj[i] = &sqlast.InExpr{X: cr, List: []sqlast.Expr{lit}}
		core.Where = sqlast.FromAnd(conj)
		return true
	}
	return false
}

// sameExecution checks bag equality of the two statements' results.
func sameExecution(db *storage.Database, a, b *sqlast.SelectStmt) bool {
	ex := sqleval.New(db)
	ra, err := ex.Run(context.Background(), a)
	if err != nil {
		return false
	}
	defer ra.Release()
	rb, err := ex.Run(context.Background(), b)
	if err != nil {
		return false
	}
	defer rb.Release()
	return sqltypes.BagEqual(ra.Rel, rb.Rel)
}
