// Package sqlnorm canonicalizes SQL statements for the Spider exact-match
// (EM) metric, keys compiled-plan caches (AppendCacheKey, built on sqlast's
// canonical rendering: one renderer, canonical form for cache keys) and
// classifies queries into the Spider difficulty buckets (easy / medium /
// hard / extra) used by the paper's Table II.
//
// EM canonicalization follows the Spider evaluation convention: identifier
// case is ignored, table aliases are renamed positionally (T1, T2, ...),
// literal values are masked ("ignoring specific values in the SQL
// statements"), and commutative conjunct/item order is sorted.
package sqlnorm

import (
	"sort"
	"strings"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
)

// Normalize returns a canonicalized deep copy of stmt.
func Normalize(stmt *sqlast.SelectStmt) *sqlast.SelectStmt {
	out := stmt.Clone()
	for _, core := range out.Cores {
		normalizeCore(core)
	}
	return out
}

// Canonical renders the normalized statement in lower case; two statements
// are EM-equal iff their Canonical strings match.
func Canonical(stmt *sqlast.SelectStmt) string {
	return strings.ToLower(Normalize(stmt).SQL())
}

// EMEqual implements the exact-match metric.
func EMEqual(a, b *sqlast.SelectStmt) bool {
	if a == nil || b == nil {
		return false
	}
	return Canonical(a) == Canonical(b)
}

func normalizeCore(core *sqlast.SelectCore) {
	renameAliases(core)
	maskLiterals(core)
	// Sort commutative lists for order-insensitive comparison.
	sort.SliceStable(core.Items, func(i, j int) bool {
		return core.Items[i].SQL() < core.Items[j].SQL()
	})
	conj := sqlast.Conjuncts(core.Where)
	sort.SliceStable(conj, func(i, j int) bool {
		return sqlast.ExprSQL(conj[i]) < sqlast.ExprSQL(conj[j])
	})
	core.Where = sqlast.FromAnd(conj)
	// Normalize nested statements too.
	for _, sub := range core.Subqueries() {
		for _, c := range sub.Cores {
			normalizeCore(c)
		}
	}
}

// renameAliases rewrites table aliases to positional T1..Tn and lower-cases
// identifiers. Unaliased tables referenced by name keep their (lowered)
// name as qualifier.
func renameAliases(core *sqlast.SelectCore) {
	if core.From == nil {
		return
	}
	mapping := map[string]string{}
	refs := core.Tables()
	for i := range refs {
		old := strings.ToLower(refs[i].Effective())
		canon := "t" + itoa(i+1)
		mapping[old] = canon
	}
	core.From.Base.Alias = mapping[strings.ToLower(core.From.Base.Effective())]
	core.From.Base.Name = strings.ToLower(core.From.Base.Name)
	for i := range core.From.Joins {
		j := &core.From.Joins[i]
		j.Table.Alias = mapping[strings.ToLower(j.Table.Effective())]
		j.Table.Name = strings.ToLower(j.Table.Name)
	}
	rewrite := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(e sqlast.Expr) bool {
			if cr, ok := e.(*sqlast.ColumnRef); ok {
				if cr.Table != "" {
					if canon, ok := mapping[strings.ToLower(cr.Table)]; ok {
						cr.Table = canon
					} else {
						cr.Table = strings.ToLower(cr.Table)
					}
				}
				cr.Column = strings.ToLower(cr.Column)
			}
			return true
		})
	}
	for i := range core.Items {
		rewrite(core.Items[i].Expr)
		core.Items[i].Alias = "" // aliases are presentation, not semantics
		if core.Items[i].TableStar != "" {
			if canon, ok := mapping[strings.ToLower(core.Items[i].TableStar)]; ok {
				core.Items[i].TableStar = canon
			}
		}
	}
	rewrite(core.Where)
	rewrite(core.Having)
	for _, g := range core.GroupBy {
		rewrite(g)
	}
	for i := range core.OrderBy {
		rewrite(core.OrderBy[i].Expr)
	}
	for i := range core.From.Joins {
		rewrite(core.From.Joins[i].On)
	}
}

// maskLiterals replaces every literal with a placeholder so EM ignores
// values, mirroring the Spider EM definition. LIMIT counts are semantic
// (LIMIT 1 vs LIMIT 3 differ structurally) and are kept.
func maskLiterals(core *sqlast.SelectCore) {
	mask := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(e sqlast.Expr) bool {
			switch x := e.(type) {
			case *sqlast.Binary:
				x.L = maskIfLiteral(x.L)
				x.R = maskIfLiteral(x.R)
			case *sqlast.FuncCall:
				for i := range x.Args {
					x.Args[i] = maskIfLiteral(x.Args[i])
				}
			case *sqlast.InExpr:
				for i := range x.List {
					x.List[i] = maskIfLiteral(x.List[i])
				}
			case *sqlast.LikeExpr:
				x.Pattern = maskIfLiteral(x.Pattern)
			case *sqlast.BetweenExpr:
				x.Lo = maskIfLiteral(x.Lo)
				x.Hi = maskIfLiteral(x.Hi)
			}
			return true
		})
	}
	mask(core.Where)
	mask(core.Having)
	for i := range core.Items {
		mask(core.Items[i].Expr)
	}
}

func maskIfLiteral(e sqlast.Expr) sqlast.Expr {
	if _, ok := e.(*sqlast.Literal); ok {
		return sqlast.Lit(sqltypes.NewText("value"))
	}
	return e
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + itoa(n%10)
}
