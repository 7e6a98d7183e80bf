package sqlast

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
)

// This file is the dialect's one SQL renderer. It writes the verbatim
// form (SQL, AppendSQL, AppendExpr), which spells the AST back as parsed,
// and the canonical form (AppendCanonicalSQL) plan-cache keys are built
// from, so how the dialect is spelled lives here alone.

// renderer walks the AST and appends its SQL. The nil renderer writes
// the verbatim form; a non-nil one writes the canonical form and holds
// the scratch its conjunct sort reuses across calls.
type renderer struct {
	conj  []Expr     // conjunct flattening stack (mark/truncate)
	spans []conjSpan // rendered conjunct spans (mark/truncate)
	segs  [][]byte   // per-WHERE-depth conjunct buffers
	depth int
}

// conjSpan is one rendered WHERE conjunct inside a depth buffer.
type conjSpan struct {
	start, end int
	parens     bool // an OR conjunct, emitted parenthesized
}

// verbatim is the nil renderer: the verbatim form.
var verbatim *renderer

// renderBufs recycles the scratch that SQL and ExprSQL render into, so a
// rendering costs one allocation: the returned string.
var renderBufs = sync.Pool{New: func() any { return new([]byte) }}

// canonRenderers recycles canonical renderers, so their sort scratch is
// warm and a canonical rendering into a reused buffer allocates nothing.
var canonRenderers = sync.Pool{New: func() any { return new(renderer) }}

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
func (s *SelectStmt) AppendSQL(dst []byte) []byte { return verbatim.appendStmt(dst, s) }

// AppendCanonicalSQL appends the canonical form of s to dst: the
// verbatim rendering with identifiers lower-cased, literal-first
// comparisons in WHERE, HAVING and ON turned column-first ("5 > a"
// becomes "a < 5"), and each WHERE's top-level AND conjuncts in byte
// order. Statements that differ only in those respects compile to
// observably identical plans, so the form keys plan caches. Orientation
// stays inside its own core: a subquery's projection is not a predicate
// position even when the subquery sits in a WHERE.
func AppendCanonicalSQL(dst []byte, s *SelectStmt) []byte {
	r := canonRenderers.Get().(*renderer)
	dst = r.appendStmt(dst, s)
	canonRenderers.Put(r)
	return dst
}

// AppendSQL appends the core's SQL rendering to dst.
func (c *SelectCore) AppendSQL(dst []byte) []byte { return verbatim.appendCore(dst, c) }

// SQL renders a projection item.
func (it SelectItem) SQL() string { return string(it.AppendSQL(nil)) }

// AppendSQL appends the projection item's SQL rendering to dst.
func (it SelectItem) AppendSQL(dst []byte) []byte { return verbatim.appendItem(dst, it) }

// AppendSQL appends the table reference's SQL rendering to dst.
func (t TableRef) AppendSQL(dst []byte) []byte { return verbatim.appendTableRef(dst, t) }

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
func AppendExpr(dst []byte, e Expr) []byte { return verbatim.appendExpr(dst, e, false) }

func (r *renderer) appendStmt(dst []byte, s *SelectStmt) []byte {
	for i, core := range s.Cores {
		if i > 0 {
			dst = append(dst, ' ')
			dst = append(dst, s.Ops[i-1]...)
			dst = append(dst, ' ')
		}
		dst = r.appendCore(dst, core)
	}
	return dst
}

func (r *renderer) appendCore(dst []byte, c *SelectCore) []byte {
	dst = append(dst, "SELECT "...)
	if c.Distinct {
		dst = append(dst, "DISTINCT "...)
	}
	for i, it := range c.Items {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = r.appendItem(dst, it)
	}
	if c.From != nil {
		dst = append(dst, " FROM "...)
		dst = r.appendTableRef(dst, c.From.Base)
		for _, j := range c.From.Joins {
			dst = append(dst, ' ')
			dst = append(dst, j.Type...)
			dst = append(dst, ' ')
			dst = r.appendTableRef(dst, j.Table)
			if j.On != nil {
				dst = append(dst, " ON "...)
				dst = r.appendExpr(dst, j.On, true)
			}
		}
	}
	if c.Where != nil {
		dst = append(dst, " WHERE "...)
		dst = r.appendWhere(dst, c.Where)
	}
	if len(c.GroupBy) > 0 {
		dst = append(dst, " GROUP BY "...)
		for i, g := range c.GroupBy {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = r.appendExpr(dst, g, false)
		}
	}
	if c.Having != nil {
		dst = append(dst, " HAVING "...)
		dst = r.appendExpr(dst, c.Having, true)
	}
	if len(c.OrderBy) > 0 {
		dst = append(dst, " ORDER BY "...)
		for i, o := range c.OrderBy {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = r.appendExpr(dst, o.Expr, false)
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

func (r *renderer) appendItem(dst []byte, it SelectItem) []byte {
	switch {
	case it.Star && it.TableStar != "":
		dst = r.appendIdent(dst, it.TableStar)
		dst = append(dst, ".*"...)
	case it.Star:
		dst = append(dst, '*')
	default:
		dst = r.appendExpr(dst, it.Expr, false)
	}
	if it.Alias != "" {
		dst = append(dst, " AS "...)
		dst = r.appendIdent(dst, it.Alias)
	}
	return dst
}

func (r *renderer) appendTableRef(dst []byte, t TableRef) []byte {
	if t.Sub != nil {
		dst = append(dst, '(')
		dst = r.appendStmt(dst, t.Sub)
		dst = append(dst, ')')
	} else {
		dst = r.appendIdent(dst, t.Name)
	}
	if t.Alias != "" {
		dst = append(dst, " AS "...)
		dst = r.appendIdent(dst, t.Alias)
	}
	return dst
}

// appendIdent appends an identifier; the canonical form lower-cases it.
// The fold matches strings.ToLower: a byte loop for ASCII, with a
// fallback for the rare non-ASCII identifier.
func (r *renderer) appendIdent(dst []byte, s string) []byte {
	if r == nil {
		return append(dst, s...)
	}
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return append(dst, strings.ToLower(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// appendWhere appends a WHERE predicate. The canonical form writes its
// top-level AND conjuncts in byte order, each rendered standalone into
// a per-depth scratch buffer (a subquery's WHERE sorts one depth down),
// joined by " AND " with parens around OR conjuncts, exactly where
// rendering the sorted conjuncts as a left-leaning AND tree puts them.
// A lone conjunct is written bare, even when it is an OR.
func (r *renderer) appendWhere(dst []byte, where Expr) []byte {
	if r == nil {
		return r.appendExpr(dst, where, true)
	}
	cMark := len(r.conj)
	r.flattenAnd(where)
	conj := r.conj[cMark:]
	if len(conj) == 1 {
		dst = r.appendExpr(dst, conj[0], true)
		r.conj = r.conj[:cMark]
		return dst
	}
	d := r.depth
	r.depth++
	if d == len(r.segs) {
		r.segs = append(r.segs, nil)
	}
	seg := r.segs[d][:0]
	sMark := len(r.spans)
	for _, c := range conj {
		start := len(seg)
		seg = r.appendExpr(seg, c, true)
		b, isBin := c.(*Binary)
		r.spans = append(r.spans, conjSpan{start: start, end: len(seg), parens: isBin && b.Op == "OR"})
	}
	r.segs[d] = seg
	spans := r.spans[sMark:]
	// Insertion sort with strict less: stable, allocation-free, and the
	// conjunct count is small.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && bytes.Compare(seg[spans[j].start:spans[j].end], seg[spans[j-1].start:spans[j-1].end]) < 0; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	for i, sp := range spans {
		if i > 0 {
			dst = append(dst, " AND "...)
		}
		if sp.parens {
			dst = append(dst, '(')
		}
		dst = append(dst, seg[sp.start:sp.end]...)
		if sp.parens {
			dst = append(dst, ')')
		}
	}
	r.spans = r.spans[:sMark]
	r.conj = r.conj[:cMark]
	r.depth--
	return dst
}

// flattenAnd pushes the top-level AND operands of e onto r.conj in
// left-to-right order, matching Conjuncts.
func (r *renderer) flattenAnd(e Expr) {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		r.flattenAnd(b.L)
		r.flattenAnd(b.R)
		return
	}
	r.conj = append(r.conj, e)
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

// flipCmp returns the operand-swapped spelling of a comparison operator
// and false for any other operator.
func flipCmp(op string) (string, bool) {
	switch op {
	case "=", "!=", "<>":
		return op, true
	case "<":
		return ">", true
	case "<=":
		return ">=", true
	case ">":
		return "<", true
	case ">=":
		return "<=", true
	}
	return "", false
}

// appendExpr appends e. pred marks the WHERE, HAVING and ON trees of the
// current core, where the canonical form orients comparisons; it does
// not cross into a subquery, whose clauses set their own.
func (r *renderer) appendExpr(dst []byte, e Expr, pred bool) []byte {
	if e == nil {
		return dst
	}
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table != "" {
			dst = r.appendIdent(dst, x.Table)
			dst = append(dst, '.')
		}
		return r.appendIdent(dst, x.Column)
	case *Literal:
		return x.Value.AppendSQLLiteral(dst)
	case *Unary:
		if x.Op == "NOT" {
			dst = append(dst, "NOT "...)
		} else {
			dst = append(dst, x.Op...)
		}
		return r.appendParen(dst, x.X, 6, pred)
	case *Binary:
		op, l, rr := x.Op, x.L, x.R
		if pred && r != nil {
			// Literal-first comparisons are written column-first; a
			// comparison of two literals is left as it is.
			if flipped, cmp := flipCmp(op); cmp {
				if _, lLit := l.(*Literal); lLit {
					if _, rLit := rr.(*Literal); !rLit {
						l, rr, op = rr, l, flipped
					}
				}
			}
		}
		p := precedence(op)
		dst = r.appendParen(dst, l, p, pred)
		dst = append(dst, ' ')
		dst = append(dst, op...)
		dst = append(dst, ' ')
		return r.appendParenRight(dst, rr, p, pred)
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
				dst = r.appendExpr(dst, a, pred)
			}
		}
		return append(dst, ')')
	case *InExpr:
		dst = r.appendParen(dst, x.X, 3, pred)
		if x.Not {
			dst = append(dst, " NOT IN ("...)
		} else {
			dst = append(dst, " IN ("...)
		}
		if x.Sub != nil {
			dst = r.appendStmt(dst, x.Sub)
		} else {
			for i, a := range x.List {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = r.appendExpr(dst, a, pred)
			}
		}
		return append(dst, ')')
	case *LikeExpr:
		dst = r.appendParen(dst, x.X, 3, pred)
		if x.Not {
			dst = append(dst, " NOT LIKE "...)
		} else {
			dst = append(dst, " LIKE "...)
		}
		return r.appendExpr(dst, x.Pattern, pred)
	case *BetweenExpr:
		dst = r.appendParen(dst, x.X, 3, pred)
		if x.Not {
			dst = append(dst, " NOT BETWEEN "...)
		} else {
			dst = append(dst, " BETWEEN "...)
		}
		dst = r.appendExpr(dst, x.Lo, pred)
		dst = append(dst, " AND "...)
		return r.appendExpr(dst, x.Hi, pred)
	case *IsNullExpr:
		dst = r.appendParen(dst, x.X, 3, pred)
		if x.Not {
			return append(dst, " IS NOT NULL"...)
		}
		return append(dst, " IS NULL"...)
	case *ExistsExpr:
		if x.Not {
			dst = append(dst, "NOT "...)
		}
		dst = append(dst, "EXISTS ("...)
		dst = r.appendStmt(dst, x.Sub)
		return append(dst, ')')
	case *SubqueryExpr:
		dst = append(dst, '(')
		dst = r.appendStmt(dst, x.Sub)
		return append(dst, ')')
	default:
		return append(dst, '?')
	}
}

// appendParen parenthesizes e when it binds looser than its parent.
func (r *renderer) appendParen(dst []byte, e Expr, parentPrec int, pred bool) []byte {
	if b, ok := e.(*Binary); ok && precedence(b.Op) < parentPrec {
		dst = append(dst, '(')
		dst = r.appendExpr(dst, e, pred)
		return append(dst, ')')
	}
	return r.appendExpr(dst, e, pred)
}

// appendParenRight parenthesizes right operands at equal precedence too,
// so non-associative trees such as a - (b - c) survive the round trip.
func (r *renderer) appendParenRight(dst []byte, e Expr, parentPrec int, pred bool) []byte {
	if b, ok := e.(*Binary); ok && precedence(b.Op) <= parentPrec && parentPrec >= 3 {
		dst = append(dst, '(')
		dst = r.appendExpr(dst, e, pred)
		return append(dst, ')')
	}
	return r.appendParen(dst, e, parentPrec, pred)
}
