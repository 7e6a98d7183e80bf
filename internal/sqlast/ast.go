// Package sqlast defines the abstract syntax tree for the Spider SQL
// dialect, together with deep cloning, tree walking and the dialect's one
// SQL renderer: the verbatim form, and the canonical form plan-cache keys
// are built from.
// Every downstream system manipulates this AST: the executor evaluates it,
// the provenance tracker rewrites it (paper §IV-A), the annotator chunks it
// into clause units (§IV-B), the corruption engine mutates it, and the EM
// normalizer canonicalizes it.
package sqlast

import "cyclesql/internal/sqltypes"

// CompoundOp is a set operation joining two SELECT cores.
type CompoundOp string

// Set operations.
const (
	Union     CompoundOp = "UNION"
	UnionAll  CompoundOp = "UNION ALL"
	Intersect CompoundOp = "INTERSECT"
	Except    CompoundOp = "EXCEPT"
)

// JoinType distinguishes join flavors.
type JoinType string

// Join flavors.
const (
	InnerJoin JoinType = "JOIN"
	LeftJoin  JoinType = "LEFT JOIN"
)

// SelectStmt is a full statement: one or more SELECT cores combined with
// set operations (left-associative, Cores[i] OP[i] Cores[i+1]).
type SelectStmt struct {
	Cores []*SelectCore
	Ops   []CompoundOp // len(Ops) == len(Cores)-1
}

// SelectCore is a single SELECT ... FROM ... block.
type SelectCore struct {
	Distinct bool
	Items    []SelectItem
	From     *FromClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64
	Offset   *int64
}

// SelectItem is one projection item.
type SelectItem struct {
	Expr  Expr   // nil when Star
	Alias string // optional AS alias
	Star  bool   // bare * (TableStar qualifies it when non-empty)
	// TableStar holds the table qualifier for "t.*" items.
	TableStar string
}

// FromClause lists the base table and its joins.
type FromClause struct {
	Base  TableRef
	Joins []Join
}

// TableRef names a table with an optional alias. Sub, when non-nil, makes
// this a derived table (FROM (SELECT ...) AS alias).
type TableRef struct {
	Name  string
	Alias string
	Sub   *SelectStmt
}

// Effective returns the name the reference binds in scope: the alias if
// present, else the table name.
func (t TableRef) Effective() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// Join is one JOIN clause.
type Join struct {
	Type  JoinType
	Table TableRef
	On    Expr // nil for comma-style cross joins
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is any expression node.
type Expr interface{ isExpr() }

// ColumnRef references a column, optionally qualified ("T1.name"). A
// Column of "*" only appears inside COUNT(*) handling.
type ColumnRef struct {
	Table  string
	Column string
}

// Literal wraps a constant value.
type Literal struct {
	Value sqltypes.Value
}

// Unary applies NOT or unary minus.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

// Binary applies an infix operator: comparison (=, !=, <, <=, >, >=),
// arithmetic (+ - * / %), or logical (AND, OR).
type Binary struct {
	Op string
	L  Expr
	R  Expr
}

// FuncCall is a function application; the dialect's functions are the five
// SQL aggregates plus ABS. Star marks COUNT(*).
type FuncCall struct {
	Name     string // upper-case
	Distinct bool
	Star     bool
	Args     []Expr
}

// IsAggregate reports whether the call is one of the SQL aggregates.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// InExpr is X [NOT] IN (list | subquery).
type InExpr struct {
	X    Expr
	Not  bool
	List []Expr
	Sub  *SelectStmt
}

// LikeExpr is X [NOT] LIKE pattern.
type LikeExpr struct {
	X       Expr
	Not     bool
	Pattern Expr
}

// BetweenExpr is X [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X   Expr
	Not bool
	Lo  Expr
	Hi  Expr
}

// IsNullExpr is X IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Not bool
	Sub *SelectStmt
}

// SubqueryExpr is a scalar subquery used as a value.
type SubqueryExpr struct {
	Sub *SelectStmt
}

func (*ColumnRef) isExpr()    {}
func (*Literal) isExpr()      {}
func (*Unary) isExpr()        {}
func (*Binary) isExpr()       {}
func (*FuncCall) isExpr()     {}
func (*InExpr) isExpr()       {}
func (*LikeExpr) isExpr()     {}
func (*BetweenExpr) isExpr()  {}
func (*IsNullExpr) isExpr()   {}
func (*ExistsExpr) isExpr()   {}
func (*SubqueryExpr) isExpr() {}

// Col is shorthand for an unqualified column reference.
func Col(name string) *ColumnRef { return &ColumnRef{Column: name} }

// QCol is shorthand for a qualified column reference.
func QCol(table, name string) *ColumnRef { return &ColumnRef{Table: table, Column: name} }

// Lit wraps a value into a literal expression.
func Lit(v sqltypes.Value) *Literal { return &Literal{Value: v} }

// Int, Text are literal shorthands used heavily by the rewriters.
func Int(v int64) *Literal   { return Lit(sqltypes.NewInt(v)) }
func Text(s string) *Literal { return Lit(sqltypes.NewText(s)) }

// Eq builds an equality comparison.
func Eq(l, r Expr) *Binary { return &Binary{Op: "=", L: l, R: r} }

// And conjoins two expressions, tolerating nil operands.
func And(l, r Expr) Expr {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return &Binary{Op: "AND", L: l, R: r}
}

// Conjuncts flattens a boolean expression into its top-level AND operands.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// FromAnd rebuilds a conjunction from a conjunct list (nil for empty).
func FromAnd(conjuncts []Expr) Expr {
	var out Expr
	for _, c := range conjuncts {
		out = And(out, c)
	}
	return out
}

// Tables returns the table references of a core in FROM order.
func (c *SelectCore) Tables() []TableRef {
	if c.From == nil {
		return nil
	}
	out := []TableRef{c.From.Base}
	for _, j := range c.From.Joins {
		out = append(out, j.Table)
	}
	return out
}

// HasAggregate reports whether any projection item or the HAVING clause
// contains an aggregate call.
func (c *SelectCore) HasAggregate() bool {
	found := false
	for _, it := range c.Items {
		if it.Expr != nil {
			WalkExpr(it.Expr, func(e Expr) bool {
				if f, ok := e.(*FuncCall); ok && f.IsAggregate() {
					found = true
				}
				return !found
			})
		}
	}
	if c.Having != nil {
		found = true
	}
	return found
}

// WalkExpr visits e and its children depth-first. The callback returns
// false to prune descent. Subquery boundaries are not crossed; use
// WalkStatements for that.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Unary:
		WalkExpr(x.X, fn)
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *InExpr:
		WalkExpr(x.X, fn)
		for _, a := range x.List {
			WalkExpr(a, fn)
		}
	case *LikeExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Pattern, fn)
	case *BetweenExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *IsNullExpr:
		WalkExpr(x.X, fn)
	}
}

// Subqueries returns the immediate subquery statements nested anywhere in
// the core's expressions or derived tables.
func (c *SelectCore) Subqueries() []*SelectStmt {
	var subs []*SelectStmt
	collect := func(e Expr) {
		WalkExpr(e, func(e Expr) bool {
			switch x := e.(type) {
			case *InExpr:
				if x.Sub != nil {
					subs = append(subs, x.Sub)
				}
			case *ExistsExpr:
				subs = append(subs, x.Sub)
			case *SubqueryExpr:
				subs = append(subs, x.Sub)
			}
			return true
		})
	}
	for _, it := range c.Items {
		collect(it.Expr)
	}
	collect(c.Where)
	collect(c.Having)
	for _, g := range c.GroupBy {
		collect(g)
	}
	for _, o := range c.OrderBy {
		collect(o.Expr)
	}
	if c.From != nil {
		for _, t := range append([]TableRef{c.From.Base}, joinTables(c.From.Joins)...) {
			if t.Sub != nil {
				subs = append(subs, t.Sub)
			}
		}
		for _, j := range c.From.Joins {
			collect(j.On)
		}
	}
	return subs
}

func joinTables(joins []Join) []TableRef {
	out := make([]TableRef, len(joins))
	for i, j := range joins {
		out[i] = j.Table
	}
	return out
}

// ColumnRefs collects every column reference in the core (not descending
// into subqueries).
func (c *SelectCore) ColumnRefs() []*ColumnRef {
	var refs []*ColumnRef
	collect := func(e Expr) {
		WalkExpr(e, func(e Expr) bool {
			if cr, ok := e.(*ColumnRef); ok {
				refs = append(refs, cr)
			}
			return true
		})
	}
	for _, it := range c.Items {
		collect(it.Expr)
	}
	collect(c.Where)
	collect(c.Having)
	for _, g := range c.GroupBy {
		collect(g)
	}
	for _, o := range c.OrderBy {
		collect(o.Expr)
	}
	if c.From != nil {
		for _, j := range c.From.Joins {
			collect(j.On)
		}
	}
	return refs
}

// Core returns the first core; most rewrites operate on simple statements.
func (s *SelectStmt) Core() *SelectCore { return s.Cores[0] }

// Wrap builds a one-core statement.
func Wrap(core *SelectCore) *SelectStmt { return &SelectStmt{Cores: []*SelectCore{core}} }
