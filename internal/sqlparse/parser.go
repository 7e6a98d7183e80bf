// Package sqlparse parses the Spider SQL dialect into sqlast trees:
// SELECT statements with joins, grouping, having, ordering, limits, set
// operations, IN/EXISTS/scalar subqueries, LIKE, BETWEEN and IS NULL —
// everything the Spider family of benchmarks emits.
//
// The parser is a recursive-descent grammar over sqllex tokens that
// allocates every AST node from a per-parser arena (see arena.go)
// instead of the heap, and reuses its token buffer across statements.
// Two entry points expose two arena lifetimes:
//
//   - Parse / MustParse: borrow a pooled parser, parse, then DETACH the
//     arena so the returned AST owns its memory. The AST is an ordinary
//     garbage-collected value, safe to cache and share across
//     goroutines (a plan in sqleval's cache keeps the AST it was
//     compiled from and reads it on every execution, so recycled node
//     memory would silently change a cached plan — detaching makes that
//     impossible). Cost: one allocation per arena chunk — single-digit
//     allocations per statement instead of one per node.
//   - AcquireParser / Parser.Parse / ReleaseParser: arena-REUSE mode.
//     The returned AST lives in the parser's arena and is invalidated
//     by the next Parse or by Release, in exchange for zero warm
//     allocations. Callers must uphold the bounded-lifetime rule:
//     consume the AST and drop every reference to it before the parser
//     is reused or released — never hand such an AST to a plan cache, a
//     goroutine, or anything else that outlives the request (see
//     docs/linting.md). sqlnorm.CacheKeyOf is the archetypal caller:
//     parse, render the key, discard.
//
// The seed front end this replaces survives verbatim in
// internal/frontdiff's seed*_test.go files; the differential suites
// there hold this parser bit-identical to it.
package sqlparse

import (
	"fmt"
	"strings"
	"sync"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqllex"
	"cyclesql/internal/sqltypes"
)

// Parse parses a single SELECT statement (an optional trailing
// semicolon is accepted) and returns its AST. The AST owns its memory:
// the pooled parser that built it detaches its arena, so the statement
// may be retained, cached, or shared freely.
func Parse(input string) (*sqlast.SelectStmt, error) {
	p := AcquireParser()
	stmt, err := p.parse(input)
	if err != nil {
		// Nothing escaped: the partial nodes stay in the arena and the
		// next borrower overwrites them.
		ReleaseParser(p)
		return nil, err
	}
	p.detach()
	ReleaseParser(p)
	return stmt, nil
}

// MustParse panics on error; for tests and static fixtures.
func MustParse(input string) *sqlast.SelectStmt {
	stmt, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return stmt
}

// Parser is a reusable SQL parser with an arena-backed allocator.
// Obtain one with AcquireParser. The zero value is also usable.
//
// ASTs returned by Parser.Parse live in the parser's arena: each call
// to Parse invalidates the previous statement, and ReleaseParser
// invalidates everything. Use the package-level Parse when the
// statement must outlive the parser.
type Parser struct {
	toks  []sqllex.Token
	pos   int
	input string

	// One slab per node type. Slices (Items, Joins, GroupBy, ...) are
	// built in the scratch stacks below and copied into their slab once
	// their extent is known.
	stmts    slab[sqlast.SelectStmt]
	cores    slab[sqlast.SelectCore]
	corePtrs slab[*sqlast.SelectCore]
	ops      slab[sqlast.CompoundOp]
	items    slab[sqlast.SelectItem]
	froms    slab[sqlast.FromClause]
	joins    slab[sqlast.Join]
	orders   slab[sqlast.OrderItem]
	exprs    slab[sqlast.Expr]
	ints     slab[int64]

	colrefs  slab[sqlast.ColumnRef]
	literals slab[sqlast.Literal]
	unaries  slab[sqlast.Unary]
	binaries slab[sqlast.Binary]
	funcs    slab[sqlast.FuncCall]
	inExprs  slab[sqlast.InExpr]
	likes    slab[sqlast.LikeExpr]
	betweens slab[sqlast.BetweenExpr]
	isNulls  slab[sqlast.IsNullExpr]
	exists   slab[sqlast.ExistsExpr]
	subqs    slab[sqlast.SubqueryExpr]

	// Scratch stacks, used mark/truncate style so nested subqueries can
	// interleave with an enclosing clause's list without copying.
	scratchItems  []sqlast.SelectItem
	scratchExprs  []sqlast.Expr
	scratchJoins  []sqlast.Join
	scratchOrders []sqlast.OrderItem
	scratchCores  []*sqlast.SelectCore
	scratchOps    []sqlast.CompoundOp
}

var parserPool = sync.Pool{New: func() any { return new(Parser) }}

// AcquireParser returns a parser from the pool. Pair with
// ReleaseParser; the parser (and every AST its Parse returned) must not
// be used after release.
func AcquireParser() *Parser {
	return parserPool.Get().(*Parser)
}

// ReleaseParser resets p and returns it to the pool.
func ReleaseParser(p *Parser) {
	p.reset()
	parserPool.Put(p)
}

// Parse parses input into the parser's arena. The result is valid only
// until the next call to Parse on this parser or ReleaseParser —
// arena-reuse mode trades that lifetime bound for zero warm
// allocations. See the package comment for the rules.
func (p *Parser) Parse(input string) (*sqlast.SelectStmt, error) {
	p.resetArenas()
	return p.parse(input)
}

func (p *Parser) parse(input string) (*sqlast.SelectStmt, error) {
	toks, err := sqllex.LexInto(input, p.toks[:0])
	p.toks = toks
	if err != nil {
		return nil, err
	}
	p.pos = 0
	p.input = input
	stmt, err := p.parseSelectStmt()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, p.errorf("trailing input starting at %q", p.peek().Text)
	}
	return stmt, nil
}

// reset clears everything: arenas, scratch, and the token buffer's
// contents (its capacity is retained).
func (p *Parser) reset() {
	p.resetArenas()
	p.input = ""
	p.pos = 0
	if p.toks != nil {
		p.toks = p.toks[:0]
	}
}

func (p *Parser) resetArenas() {
	p.stmts.reset()
	p.cores.reset()
	p.corePtrs.reset()
	p.ops.reset()
	p.items.reset()
	p.froms.reset()
	p.joins.reset()
	p.orders.reset()
	p.exprs.reset()
	p.ints.reset()
	p.colrefs.reset()
	p.literals.reset()
	p.unaries.reset()
	p.binaries.reset()
	p.funcs.reset()
	p.inExprs.reset()
	p.likes.reset()
	p.betweens.reset()
	p.isNulls.reset()
	p.exists.reset()
	p.subqs.reset()
	p.scratchItems = p.scratchItems[:0]
	p.scratchExprs = p.scratchExprs[:0]
	p.scratchJoins = p.scratchJoins[:0]
	p.scratchOrders = p.scratchOrders[:0]
	p.scratchCores = p.scratchCores[:0]
	p.scratchOps = p.scratchOps[:0]
}

// detach hands every arena chunk over to the AST parsed so far; the
// parser starts the next statement on fresh chunks.
func (p *Parser) detach() {
	p.stmts.detach()
	p.cores.detach()
	p.corePtrs.detach()
	p.ops.detach()
	p.items.detach()
	p.froms.detach()
	p.joins.detach()
	p.orders.detach()
	p.exprs.detach()
	p.ints.detach()
	p.colrefs.detach()
	p.literals.detach()
	p.unaries.detach()
	p.binaries.detach()
	p.funcs.detach()
	p.inExprs.detach()
	p.likes.detach()
	p.betweens.detach()
	p.isNulls.detach()
	p.exists.detach()
	p.subqs.detach()
}

// Node constructors over the slabs.

func (p *Parser) newBinary(op string, l, r sqlast.Expr) *sqlast.Binary {
	b := p.binaries.alloc()
	b.Op, b.L, b.R = op, l, r
	return b
}

func (p *Parser) newUnary(op string, x sqlast.Expr) *sqlast.Unary {
	u := p.unaries.alloc()
	u.Op, u.X = op, x
	return u
}

func (p *Parser) newLiteral(v sqltypes.Value) *sqlast.Literal {
	l := p.literals.alloc()
	l.Value = v
	return l
}

func (p *Parser) newColumnRef(table, column string) *sqlast.ColumnRef {
	c := p.colrefs.alloc()
	c.Table, c.Column = table, column
	return c
}

func (p *Parser) peek() sqllex.Token { return p.toks[p.pos] }
func (p *Parser) atEOF() bool        { return p.peek().Kind == sqllex.TokEOF }
func (p *Parser) save() int          { return p.pos }
func (p *Parser) restore(mark int)   { p.pos = mark }

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: %s (at offset %d in %q)", fmt.Sprintf(format, args...), p.peek().Pos, p.input)
}

func (p *Parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.Kind == sqllex.TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.peek().Text)
	}
	return nil
}

func (p *Parser) accept(op string) bool {
	t := p.peek()
	if t.Kind == sqllex.TokOp && t.Text == op {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(op string) error {
	if !p.accept(op) {
		return p.errorf("expected %q, found %q", op, p.peek().Text)
	}
	return nil
}

func (p *Parser) parseSelectStmt() (*sqlast.SelectStmt, error) {
	coresMark := len(p.scratchCores)
	opsMark := len(p.scratchOps)
	defer func() {
		p.scratchCores = p.scratchCores[:coresMark]
		p.scratchOps = p.scratchOps[:opsMark]
	}()
	core, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	p.scratchCores = append(p.scratchCores, core)
	for {
		var op sqlast.CompoundOp
		switch {
		case p.acceptKeyword("UNION"):
			if p.acceptKeyword("ALL") {
				op = sqlast.UnionAll
			} else {
				op = sqlast.Union
			}
		case p.acceptKeyword("INTERSECT"):
			op = sqlast.Intersect
		case p.acceptKeyword("EXCEPT"):
			op = sqlast.Except
		default:
			stmt := p.stmts.alloc()
			stmt.Cores = p.corePtrs.allocSlice(p.scratchCores[coresMark:])
			stmt.Ops = p.ops.allocSlice(p.scratchOps[opsMark:])
			return stmt, nil
		}
		rhs, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		p.scratchCores = append(p.scratchCores, rhs)
		p.scratchOps = append(p.scratchOps, op)
	}
}

func (p *Parser) parseSelectCore() (*sqlast.SelectCore, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	core := p.cores.alloc()
	if p.acceptKeyword("DISTINCT") {
		core.Distinct = true
	}
	itemsMark := len(p.scratchItems)
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			p.scratchItems = p.scratchItems[:itemsMark]
			return nil, err
		}
		p.scratchItems = append(p.scratchItems, item)
		if !p.accept(",") {
			break
		}
	}
	core.Items = p.items.allocSlice(p.scratchItems[itemsMark:])
	p.scratchItems = p.scratchItems[:itemsMark]
	if p.acceptKeyword("FROM") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		core.From = from
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		mark := len(p.scratchExprs)
		for {
			e, err := p.parseExpr()
			if err != nil {
				p.scratchExprs = p.scratchExprs[:mark]
				return nil, err
			}
			p.scratchExprs = append(p.scratchExprs, e)
			if !p.accept(",") {
				break
			}
		}
		core.GroupBy = p.exprs.allocSlice(p.scratchExprs[mark:])
		p.scratchExprs = p.scratchExprs[:mark]
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		mark := len(p.scratchOrders)
		for {
			e, err := p.parseExpr()
			if err != nil {
				p.scratchOrders = p.scratchOrders[:mark]
				return nil, err
			}
			item := sqlast.OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			p.scratchOrders = append(p.scratchOrders, item)
			if !p.accept(",") {
				break
			}
		}
		core.OrderBy = p.orders.allocSlice(p.scratchOrders[mark:])
		p.scratchOrders = p.scratchOrders[:mark]
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		core.Limit = n
		if p.acceptKeyword("OFFSET") {
			o, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			core.Offset = o
		} else if p.accept(",") {
			cnt, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			core.Offset = core.Limit
			core.Limit = cnt
		}
	}
	return core, nil
}

func (p *Parser) parseInt() (*int64, error) {
	t := p.peek()
	if t.Kind != sqllex.TokNumber {
		return nil, p.errorf("expected integer, found %q", t.Text)
	}
	p.pos++
	v := sqltypes.ParseLiteral(t.Text, false)
	if v.Kind() != sqltypes.KindInt {
		return nil, p.errorf("expected integer, found %q", t.Text)
	}
	n := p.ints.alloc()
	*n = v.Int()
	return n, nil
}

func (p *Parser) parseSelectItem() (sqlast.SelectItem, error) {
	if p.accept("*") {
		return sqlast.SelectItem{Star: true}, nil
	}
	mark := p.save()
	if t := p.peek(); t.Kind == sqllex.TokIdent {
		p.pos++
		if p.accept(".") && p.accept("*") {
			return sqlast.SelectItem{Star: true, TableStar: t.Text}, nil
		}
		p.restore(mark)
	}
	e, err := p.parseExpr()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	item := sqlast.SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.peek()
		if t.Kind != sqllex.TokIdent && t.Kind != sqllex.TokKeyword {
			return item, p.errorf("expected alias after AS, found %q", t.Text)
		}
		p.pos++
		item.Alias = t.Text
	} else if t := p.peek(); t.Kind == sqllex.TokIdent {
		p.pos++
		item.Alias = t.Text
	}
	return item, nil
}

func (p *Parser) parseFrom() (*sqlast.FromClause, error) {
	base, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	from := p.froms.alloc()
	from.Base = base
	mark := len(p.scratchJoins)
	defer func() { p.scratchJoins = p.scratchJoins[:mark] }()
	for {
		var jt sqlast.JoinType
		switch {
		case p.acceptKeyword("JOIN"):
			jt = sqlast.InnerJoin
		case p.acceptKeyword("INNER"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = sqlast.InnerJoin
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = sqlast.LeftJoin
		case p.accept(","):
			jt = sqlast.InnerJoin
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			p.scratchJoins = append(p.scratchJoins, sqlast.Join{Type: jt, Table: ref})
			continue
		default:
			from.Joins = p.joins.allocSlice(p.scratchJoins[mark:])
			return from, nil
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		j := sqlast.Join{Type: jt, Table: ref}
		if p.acceptKeyword("ON") {
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		p.scratchJoins = append(p.scratchJoins, j)
	}
}

func (p *Parser) parseTableRef() (sqlast.TableRef, error) {
	if p.accept("(") {
		sub, err := p.parseSelectStmt()
		if err != nil {
			return sqlast.TableRef{}, err
		}
		if err := p.expect(")"); err != nil {
			return sqlast.TableRef{}, err
		}
		ref := sqlast.TableRef{Sub: sub}
		ref.Alias = p.parseOptionalAlias()
		return ref, nil
	}
	t := p.peek()
	if t.Kind != sqllex.TokIdent {
		return sqlast.TableRef{}, p.errorf("expected table name, found %q", t.Text)
	}
	p.pos++
	ref := sqlast.TableRef{Name: t.Text}
	ref.Alias = p.parseOptionalAlias()
	return ref, nil
}

func (p *Parser) parseOptionalAlias() string {
	if p.acceptKeyword("AS") {
		t := p.peek()
		if t.Kind == sqllex.TokIdent {
			p.pos++
			return t.Text
		}
		return ""
	}
	if t := p.peek(); t.Kind == sqllex.TokIdent {
		p.pos++
		return t.Text
	}
	return ""
}

func (p *Parser) parseExpr() (sqlast.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (sqlast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = p.newBinary("OR", l, r)
	}
	return l, nil
}

func (p *Parser) parseAnd() (sqlast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = p.newBinary("AND", l, r)
	}
	return l, nil
}

func (p *Parser) parseNot() (sqlast.Expr, error) {
	if p.acceptKeyword("NOT") {
		if p.peek().Kind == sqllex.TokKeyword && p.peek().Text == "EXISTS" {
			e, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			if ex, ok := e.(*sqlast.ExistsExpr); ok {
				ex.Not = true
				return ex, nil
			}
			return p.newUnary("NOT", e), nil
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return p.newUnary("NOT", x), nil
	}
	return p.parsePredicate()
}

// cmpOps in the seed parser's trial order; "<>" canonicalizes to "!=".
var cmpOps = [...]string{"=", "!=", "<>", "<=", ">=", "<", ">"}

func (p *Parser) parsePredicate() (sqlast.Expr, error) {
	if p.peek().Kind == sqllex.TokKeyword && p.peek().Text == "EXISTS" {
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		ex := p.exists.alloc()
		ex.Sub = sub
		return ex, nil
	}
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	not := false
	if p.peek().Kind == sqllex.TokKeyword && p.peek().Text == "NOT" {
		nxt := p.toks[p.pos+1]
		if nxt.Kind == sqllex.TokKeyword && (nxt.Text == "IN" || nxt.Text == "LIKE" || nxt.Text == "BETWEEN") {
			p.pos++
			not = true
		}
	}
	switch {
	case p.acceptKeyword("IN"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		in := p.inExprs.alloc()
		in.X, in.Not = l, not
		if p.peek().Kind == sqllex.TokKeyword && p.peek().Text == "SELECT" {
			sub, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			in.Sub = sub
		} else {
			mark := len(p.scratchExprs)
			for {
				e, err := p.parseExpr()
				if err != nil {
					p.scratchExprs = p.scratchExprs[:mark]
					return nil, err
				}
				p.scratchExprs = append(p.scratchExprs, e)
				if !p.accept(",") {
					break
				}
			}
			in.List = p.exprs.allocSlice(p.scratchExprs[mark:])
			p.scratchExprs = p.scratchExprs[:mark]
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.acceptKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		lk := p.likes.alloc()
		lk.X, lk.Not, lk.Pattern = l, not, pat
		return lk, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		bt := p.betweens.alloc()
		bt.X, bt.Not, bt.Lo, bt.Hi = l, not, lo, hi
		return bt, nil
	case p.acceptKeyword("IS"):
		isNot := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		isn := p.isNulls.alloc()
		isn.X, isn.Not = l, isNot
		return isn, nil
	}
	for _, op := range cmpOps {
		if p.accept(op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "<>" {
				op = "!="
			}
			return p.newBinary(op, l, r), nil
		}
	}
	return l, nil
}

func (p *Parser) parseAdditive() (sqlast.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept("+"):
			op = "+"
		case p.accept("-"):
			op = "-"
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = p.newBinary(op, l, r)
	}
}

func (p *Parser) parseMultiplicative() (sqlast.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept("*"):
			op = "*"
		case p.accept("/"):
			op = "/"
		case p.accept("%"):
			op = "%"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = p.newBinary(op, l, r)
	}
}

func (p *Parser) parseUnary() (sqlast.Expr, error) {
	if p.accept("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*sqlast.Literal); ok && lit.Value.IsNumeric() {
			// Fold the sign into the literal in place: the node came out
			// of our own arena a moment ago and nothing else points at it.
			if lit.Value.Kind() == sqltypes.KindInt {
				lit.Value = sqltypes.NewInt(-lit.Value.Int())
			} else {
				lit.Value = sqltypes.NewFloat(-lit.Value.Float())
			}
			return lit, nil
		}
		return p.newUnary("-", x), nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (sqlast.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case sqllex.TokNumber:
		p.pos++
		return p.newLiteral(sqltypes.ParseLiteral(t.Text, false)), nil
	case sqllex.TokString:
		p.pos++
		return p.newLiteral(sqltypes.NewText(t.Text)), nil
	case sqllex.TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return p.newLiteral(sqltypes.Null()), nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX", "ABS":
			p.pos++
			return p.parseFuncCall(t.Text)
		case "SELECT":
			return nil, p.errorf("bare SELECT in expression position; parenthesize subqueries")
		}
		return nil, p.errorf("unexpected keyword %q", t.Text)
	case sqllex.TokIdent:
		p.pos++
		if p.accept(".") {
			nt := p.peek()
			if nt.Kind == sqllex.TokOp && nt.Text == "*" {
				p.pos++
				return p.newColumnRef(t.Text, "*"), nil
			}
			if nt.Kind != sqllex.TokIdent && nt.Kind != sqllex.TokKeyword {
				return nil, p.errorf("expected column name after the dot following %q", t.Text)
			}
			p.pos++
			return p.newColumnRef(t.Text, nt.Text), nil
		}
		return p.newColumnRef("", t.Text), nil
	case sqllex.TokOp:
		if t.Text == "(" {
			p.pos++
			if p.peek().Kind == sqllex.TokKeyword && p.peek().Text == "SELECT" {
				sub, err := p.parseSelectStmt()
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				sq := p.subqs.alloc()
				sq.Sub = sub
				return sq, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "*" {
			p.pos++
			return p.newColumnRef("", "*"), nil
		}
	}
	return nil, p.errorf("unexpected token %q", t.Text)
}

func (p *Parser) parseFuncCall(name string) (sqlast.Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	fc := p.funcs.alloc()
	// name is the lexer's canonical keyword spelling, already upper-case;
	// ToUpper is a no-op kept for zero-value Parser safety.
	fc.Name = strings.ToUpper(name)
	if p.acceptKeyword("DISTINCT") {
		fc.Distinct = true
	}
	if p.accept("*") {
		fc.Star = true
	} else {
		mark := len(p.scratchExprs)
		for {
			e, err := p.parseExpr()
			if err != nil {
				p.scratchExprs = p.scratchExprs[:mark]
				return nil, err
			}
			if cr, ok := e.(*sqlast.ColumnRef); ok && cr.Column == "*" {
				fc.Star = true
			} else {
				p.scratchExprs = append(p.scratchExprs, e)
			}
			if !p.accept(",") {
				break
			}
		}
		fc.Args = p.exprs.allocSlice(p.scratchExprs[mark:])
		p.scratchExprs = p.scratchExprs[:mark]
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return fc, nil
}
