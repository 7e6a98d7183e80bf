package sqlast

import (
	"strconv"
	"sync"
)

// renderBufs recycles the scratch that SQL and ExprSQL render into, so a
// rendering costs one allocation: the returned string.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// SQL renders the statement back to SQL text. Rendering is deterministic,
// so rendered text is safe to use as a cache key; it is re-parseable by
// sqlparse (round-trip property covered by tests).
func (s *SelectStmt) SQL() string {
	bp := renderBufs.Get().(*[]byte)
	*bp = s.AppendSQL((*bp)[:0])
	out := string(*bp)
	renderBufs.Put(bp)
	return out
}

// AppendSQL appends the statement's SQL rendering to dst, byte for byte
// what SQL returns, without materializing intermediate strings.
func (s *SelectStmt) AppendSQL(dst []byte) []byte {
	for i, core := range s.Cores {
		if i > 0 {
			dst = append(dst, ' ')
			dst = append(dst, s.Ops[i-1]...)
			dst = append(dst, ' ')
		}
		dst = core.AppendSQL(dst)
	}
	return dst
}

// SQL renders a single SELECT core. Like SelectStmt.SQL, the rendering is
// deterministic, so it doubles as a memoization key for per-core caches
// (the provenance tracker keys its rewrite cache on it).
func (c *SelectCore) SQL() string {
	bp := renderBufs.Get().(*[]byte)
	*bp = c.AppendSQL((*bp)[:0])
	out := string(*bp)
	renderBufs.Put(bp)
	return out
}

// AppendSQL appends the core's SQL rendering to dst.
func (c *SelectCore) AppendSQL(dst []byte) []byte {
	dst = append(dst, "SELECT "...)
	if c.Distinct {
		dst = append(dst, "DISTINCT "...)
	}
	for i, it := range c.Items {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = it.AppendSQL(dst)
	}
	if c.From != nil {
		dst = append(dst, " FROM "...)
		dst = c.From.Base.AppendSQL(dst)
		for _, j := range c.From.Joins {
			dst = append(dst, ' ')
			dst = append(dst, j.Type...)
			dst = append(dst, ' ')
			dst = j.Table.AppendSQL(dst)
			if j.On != nil {
				dst = append(dst, " ON "...)
				dst = AppendExpr(dst, j.On)
			}
		}
	}
	if c.Where != nil {
		dst = append(dst, " WHERE "...)
		dst = AppendExpr(dst, c.Where)
	}
	if len(c.GroupBy) > 0 {
		dst = append(dst, " GROUP BY "...)
		for i, g := range c.GroupBy {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = AppendExpr(dst, g)
		}
	}
	if c.Having != nil {
		dst = append(dst, " HAVING "...)
		dst = AppendExpr(dst, c.Having)
	}
	if len(c.OrderBy) > 0 {
		dst = append(dst, " ORDER BY "...)
		for i, o := range c.OrderBy {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = AppendExpr(dst, o.Expr)
			if o.Desc {
				dst = append(dst, " DESC"...)
			}
		}
	}
	if c.Limit != nil {
		dst = append(dst, " LIMIT "...)
		dst = strconv.AppendInt(dst, *c.Limit, 10)
	}
	if c.Offset != nil {
		dst = append(dst, " OFFSET "...)
		dst = strconv.AppendInt(dst, *c.Offset, 10)
	}
	return dst
}

// SQL renders a projection item.
func (it SelectItem) SQL() string { return string(it.AppendSQL(nil)) }

// AppendSQL appends the projection item's SQL rendering to dst.
func (it SelectItem) AppendSQL(dst []byte) []byte {
	switch {
	case it.Star && it.TableStar != "":
		dst = append(dst, it.TableStar...)
		dst = append(dst, ".*"...)
	case it.Star:
		dst = append(dst, '*')
	default:
		dst = AppendExpr(dst, it.Expr)
	}
	if it.Alias != "" {
		dst = append(dst, " AS "...)
		dst = append(dst, it.Alias...)
	}
	return dst
}

// SQL renders a table reference.
func (t TableRef) SQL() string { return string(t.AppendSQL(nil)) }

// AppendSQL appends the table reference's SQL rendering to dst.
func (t TableRef) AppendSQL(dst []byte) []byte {
	if t.Sub != nil {
		dst = append(dst, '(')
		dst = t.Sub.AppendSQL(dst)
		dst = append(dst, ')')
	} else {
		dst = append(dst, t.Name...)
	}
	if t.Alias != "" {
		dst = append(dst, " AS "...)
		dst = append(dst, t.Alias...)
	}
	return dst
}

// precedence for minimal parenthesization; higher binds tighter.
func precedence(op string) int {
	switch op {
	case "OR":
		return 1
	case "AND":
		return 2
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		return 3
	case "+", "-":
		return 4
	case "*", "/", "%":
		return 5
	default:
		return 6
	}
}

// ExprSQL renders an expression to SQL text.
func ExprSQL(e Expr) string {
	if c, ok := e.(*ColumnRef); ok && c.Table == "" {
		return c.Column
	}
	bp := renderBufs.Get().(*[]byte)
	*bp = AppendExpr((*bp)[:0], e)
	out := string(*bp)
	renderBufs.Put(bp)
	return out
}

// AppendExpr appends ExprSQL's rendering of e to dst.
func AppendExpr(dst []byte, e Expr) []byte {
	if e == nil {
		return dst
	}
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table != "" {
			dst = append(dst, x.Table...)
			dst = append(dst, '.')
		}
		return append(dst, x.Column...)
	case *Literal:
		return x.Value.AppendSQLLiteral(dst)
	case *Unary:
		if x.Op == "NOT" {
			dst = append(dst, "NOT "...)
		} else {
			dst = append(dst, x.Op...)
		}
		return appendParen(dst, x.X, 6)
	case *Binary:
		p := precedence(x.Op)
		dst = appendParen(dst, x.L, p)
		dst = append(dst, ' ')
		dst = append(dst, x.Op...)
		dst = append(dst, ' ')
		return appendParenRight(dst, x.R, p)
	case *FuncCall:
		dst = append(dst, x.Name...)
		dst = append(dst, '(')
		if x.Distinct {
			dst = append(dst, "DISTINCT "...)
		}
		if x.Star {
			dst = append(dst, '*')
		} else {
			for i, a := range x.Args {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = AppendExpr(dst, a)
			}
		}
		return append(dst, ')')
	case *InExpr:
		dst = appendParen(dst, x.X, 3)
		if x.Not {
			dst = append(dst, " NOT IN ("...)
		} else {
			dst = append(dst, " IN ("...)
		}
		if x.Sub != nil {
			dst = x.Sub.AppendSQL(dst)
		} else {
			for i, a := range x.List {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = AppendExpr(dst, a)
			}
		}
		return append(dst, ')')
	case *LikeExpr:
		dst = appendParen(dst, x.X, 3)
		if x.Not {
			dst = append(dst, " NOT LIKE "...)
		} else {
			dst = append(dst, " LIKE "...)
		}
		return AppendExpr(dst, x.Pattern)
	case *BetweenExpr:
		dst = appendParen(dst, x.X, 3)
		if x.Not {
			dst = append(dst, " NOT BETWEEN "...)
		} else {
			dst = append(dst, " BETWEEN "...)
		}
		dst = AppendExpr(dst, x.Lo)
		dst = append(dst, " AND "...)
		return AppendExpr(dst, x.Hi)
	case *IsNullExpr:
		dst = appendParen(dst, x.X, 3)
		if x.Not {
			return append(dst, " IS NOT NULL"...)
		}
		return append(dst, " IS NULL"...)
	case *ExistsExpr:
		if x.Not {
			dst = append(dst, "NOT "...)
		}
		dst = append(dst, "EXISTS ("...)
		dst = x.Sub.AppendSQL(dst)
		return append(dst, ')')
	case *SubqueryExpr:
		dst = append(dst, '(')
		dst = x.Sub.AppendSQL(dst)
		return append(dst, ')')
	default:
		return append(dst, '?')
	}
}

// appendParen parenthesizes e when it binds looser than its parent.
func appendParen(dst []byte, e Expr, parentPrec int) []byte {
	if b, ok := e.(*Binary); ok && precedence(b.Op) < parentPrec {
		dst = append(dst, '(')
		dst = AppendExpr(dst, e)
		return append(dst, ')')
	}
	return AppendExpr(dst, e)
}

// appendParenRight parenthesizes right operands at equal precedence too,
// so non-associative trees such as a - (b - c) survive the round trip.
func appendParenRight(dst []byte, e Expr, parentPrec int) []byte {
	if b, ok := e.(*Binary); ok && precedence(b.Op) <= parentPrec && parentPrec >= 3 {
		dst = append(dst, '(')
		dst = AppendExpr(dst, e)
		return append(dst, ')')
	}
	return appendParen(dst, e, parentPrec)
}
