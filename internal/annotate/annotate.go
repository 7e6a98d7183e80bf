// Package annotate implements CycleSQL's semantics-enrichment stage (paper
// §IV-B). It decomposes the translated SQL query into clause-level query
// units and overlays each unit's operation-level semantics onto the
// matching parts of the provenance: column-level annotations attach to a
// provenance column, table-level annotations (aggregates over *, HAVING,
// ORDER/LIMIT) attach to the provenance table as a whole, mirroring the
// paper's treatment of asterisk elements.
package annotate

import (
	"strconv"
	"strings"

	"cyclesql/internal/provenance"
	"cyclesql/internal/sqlast"
)

// Kind classifies an annotation.
type Kind string

// Annotation kinds produced by the decomposition.
const (
	KindProjection Kind = "projection" // plain SELECT column
	KindAggregate  Kind = "aggregate"  // SELECT/HAVING aggregate
	KindFilter     Kind = "filter"     // WHERE comparison on a column
	KindMembership Kind = "membership" // IN / NOT IN
	KindPattern    Kind = "pattern"    // LIKE
	KindRange      Kind = "range"      // BETWEEN
	KindNullCheck  Kind = "nullcheck"  // IS [NOT] NULL
	KindExists     Kind = "exists"     // EXISTS subquery
	KindJoin       Kind = "join"       // JOIN ... ON
	KindGroup      Kind = "group"      // GROUP BY key
	KindHaving     Kind = "having"     // HAVING condition
	KindOrder      Kind = "order"      // ORDER BY (+ LIMIT)
	KindDistinct   Kind = "distinct"   // SELECT DISTINCT
)

// Annotation is one query unit's semantics, anchored to a provenance
// column (Column non-empty, qualified by Table as the query spells it) or
// to the whole provenance table. The fields after Column are
// unit-specific; each names the kinds that set it.
type Annotation struct {
	Kind   Kind
	Clause string // source clause: SELECT, WHERE, HAVING, ...
	Table  string // anchor column's qualifier, "" when unqualified
	Column string // anchor column ("" = whole table)

	Op    string // comparison operator: filter, having
	Value string // comparand: filter, membership, pattern, exists, having
	Func  string // lower-case aggregate function: aggregate, having
	Arg   string // aggregate argument SQL, "*" for an aggregate over *
	Lo    string // lower bound: range
	Hi    string // upper bound: range
	Key   string // key SQL: order
	Limit string // LIMIT count, "" without one: order

	Desc     bool // descending: order
	Not      bool // negated: membership, pattern, nullcheck, exists
	Subquery bool // Value describes a subquery: filter, membership
	Distinct bool // DISTINCT aggregate: aggregate
	Disjunct bool // one branch of an OR: any WHERE unit
}

// Anchored reports whether the annotation attaches to a specific column.
func (a Annotation) Anchored() bool { return a.Column != "" }

// Append decomposes one SELECT core of the traced query into its
// annotations, clause by clause, and appends them to dst. The annotations
// of provenance part i come from the part's Core.
func Append(dst []Annotation, core *sqlast.SelectCore) []Annotation {
	// SELECT clause.
	if core.Distinct {
		dst = append(dst, Annotation{Kind: KindDistinct, Clause: "SELECT"})
	}
	for _, it := range core.Items {
		if it.Star {
			continue
		}
		switch x := it.Expr.(type) {
		case *sqlast.ColumnRef:
			dst = append(dst, Annotation{Kind: KindProjection, Clause: "SELECT", Table: x.Table, Column: x.Column})
		case *sqlast.FuncCall:
			if x.IsAggregate() {
				dst = append(dst, aggregateAnnotation(x, "SELECT"))
			}
		case *sqlast.Binary:
			// Arithmetic over aggregates (max(a) - min(a)).
			sqlast.WalkExpr(x, func(e sqlast.Expr) bool {
				if f, ok := e.(*sqlast.FuncCall); ok && f.IsAggregate() {
					dst = append(dst, aggregateAnnotation(f, "SELECT"))
				}
				return true
			})
		}
	}
	// WHERE clause, conjunct by conjunct.
	dst = appendConjuncts(dst, core.Where, "WHERE")
	// JOIN conditions.
	if core.From != nil {
		for _, j := range core.From.Joins {
			if b, ok := j.On.(*sqlast.Binary); ok && b.Op == "=" {
				l, lok := b.L.(*sqlast.ColumnRef)
				_, rok := b.R.(*sqlast.ColumnRef)
				if lok && rok {
					dst = append(dst, Annotation{Kind: KindJoin, Clause: "JOIN", Table: l.Table, Column: l.Column})
				}
			}
		}
	}
	// GROUP BY keys.
	for _, g := range core.GroupBy {
		if cr, ok := g.(*sqlast.ColumnRef); ok {
			dst = append(dst, Annotation{Kind: KindGroup, Clause: "GROUP BY", Table: cr.Table, Column: cr.Column})
		}
	}
	// HAVING: aggregate conditions apply to the whole (grouped) table.
	dst = appendHaving(dst, core.Having)
	// ORDER BY (+ LIMIT) selects representative rows; table-level.
	for _, o := range core.OrderBy {
		a := Annotation{Kind: KindOrder, Clause: "ORDER BY", Key: sqlast.ExprSQL(o.Expr), Desc: o.Desc}
		if core.Limit != nil {
			a.Limit = strconv.FormatInt(*core.Limit, 10)
		}
		dst = append(dst, a)
	}
	return dst
}

// appendHaving appends a table-level annotation for every HAVING conjunct
// that compares an aggregate.
func appendHaving(dst []Annotation, e sqlast.Expr) []Annotation {
	b, ok := e.(*sqlast.Binary)
	if !ok {
		return dst
	}
	if b.Op == "AND" {
		return appendHaving(appendHaving(dst, b.L), b.R)
	}
	if f, ok := b.L.(*sqlast.FuncCall); ok && f.IsAggregate() {
		a := Annotation{Kind: KindHaving, Clause: "HAVING", Func: FuncName(f), Op: b.Op, Value: sqlast.ExprSQL(b.R)}
		if !f.Star && len(f.Args) == 1 {
			a.Arg = sqlast.ExprSQL(f.Args[0])
		}
		dst = append(dst, a)
	}
	return dst
}

func aggregateAnnotation(f *sqlast.FuncCall, clause string) Annotation {
	// Aggregates over * (or over a collapsed column) describe the whole
	// provenance table rather than one element.
	a := Annotation{Kind: KindAggregate, Clause: clause, Func: FuncName(f), Distinct: f.Distinct}
	if f.Star {
		a.Arg = "*"
	} else if len(f.Args) == 1 {
		a.Arg = sqlast.ExprSQL(f.Args[0])
		if cr, ok := f.Args[0].(*sqlast.ColumnRef); ok {
			a.Table, a.Column = cr.Table, cr.Column
		}
	}
	return a
}

// FuncName returns f's name in lower case; the aggregate names, which the
// parser spells in upper case, need no allocation.
func FuncName(f *sqlast.FuncCall) string {
	switch f.Name {
	case "COUNT":
		return "count"
	case "SUM":
		return "sum"
	case "AVG":
		return "avg"
	case "MIN":
		return "min"
	case "MAX":
		return "max"
	}
	return strings.ToLower(f.Name)
}

// appendConjuncts appends the annotations of every top-level AND operand
// of e, left to right.
func appendConjuncts(dst []Annotation, e sqlast.Expr, clause string) []Annotation {
	if b, ok := e.(*sqlast.Binary); ok && b.Op == "AND" {
		return appendConjuncts(appendConjuncts(dst, b.L, clause), b.R, clause)
	}
	if e == nil {
		return dst
	}
	return appendPredicate(dst, e, clause)
}

// appendPredicate maps one WHERE conjunct to annotations.
func appendPredicate(dst []Annotation, c sqlast.Expr, clause string) []Annotation {
	switch x := c.(type) {
	case *sqlast.Binary:
		if x.Op == "OR" {
			// Disjunctions annotate the table with each branch.
			start := len(dst)
			dst = appendPredicate(appendPredicate(dst, x.L, clause), x.R, clause)
			for i := start; i < len(dst); i++ {
				dst[i].Disjunct = true
			}
			return dst
		}
		cr, okL := x.L.(*sqlast.ColumnRef)
		if !okL {
			return dst
		}
		a := Annotation{Kind: KindFilter, Clause: clause, Table: cr.Table, Column: cr.Column, Op: x.Op}
		switch r := x.R.(type) {
		case *sqlast.Literal:
			a.Value = r.Value.String()
		case *sqlast.SubqueryExpr:
			a.Value, a.Subquery = describeSub(r.Sub), true
		default:
			a.Value = sqlast.ExprSQL(x.R)
		}
		return append(dst, a)
	case *sqlast.InExpr:
		cr, ok := x.X.(*sqlast.ColumnRef)
		if !ok {
			return dst
		}
		a := Annotation{Kind: KindMembership, Clause: clause, Table: cr.Table, Column: cr.Column, Not: x.Not}
		if x.Sub != nil {
			a.Value, a.Subquery = describeSub(x.Sub), true
		} else {
			var b []byte
			for i, v := range x.List {
				if i > 0 {
					b = append(b, ", "...)
				}
				b = sqlast.AppendExpr(b, v)
			}
			a.Value = string(b)
		}
		return append(dst, a)
	case *sqlast.LikeExpr:
		cr, ok := x.X.(*sqlast.ColumnRef)
		if !ok {
			return dst
		}
		return append(dst, Annotation{Kind: KindPattern, Clause: clause, Table: cr.Table, Column: cr.Column,
			Value: sqlast.ExprSQL(x.Pattern), Not: x.Not})
	case *sqlast.BetweenExpr:
		cr, ok := x.X.(*sqlast.ColumnRef)
		if !ok {
			return dst
		}
		return append(dst, Annotation{Kind: KindRange, Clause: clause, Table: cr.Table, Column: cr.Column,
			Lo: sqlast.ExprSQL(x.Lo), Hi: sqlast.ExprSQL(x.Hi)})
	case *sqlast.IsNullExpr:
		cr, ok := x.X.(*sqlast.ColumnRef)
		if !ok {
			return dst
		}
		return append(dst, Annotation{Kind: KindNullCheck, Clause: clause, Table: cr.Table, Column: cr.Column, Not: x.Not})
	case *sqlast.ExistsExpr:
		return append(dst, Annotation{Kind: KindExists, Clause: clause, Value: describeSub(x.Sub), Not: x.Not})
	}
	return dst
}

// describeSub summarizes a subquery for annotation detail text: its
// projection and its literal filters.
func describeSub(sub *sqlast.SelectStmt) string {
	core := sub.Cores[0]
	var b []byte
	for i, it := range core.Items {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = it.AppendSQL(b)
	}
	for i, f := range provenance.Filters(core) {
		if i == 0 {
			b = append(b, " where "...)
		} else {
			b = append(b, " and "...)
		}
		b = append(b, f.Column.Column...)
		b = append(b, ' ')
		b = append(b, strings.ToLower(f.Op)...)
		b = append(b, ' ')
		b = f.Value.AppendString(b)
	}
	return string(b)
}
