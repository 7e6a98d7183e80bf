package frontdiff

import (
	"fmt"
	"strings"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqllex"
	"cyclesql/internal/sqltypes"
)

// seedParse is the seed parser: one heap allocation per AST node, the token
// slice materialized up front by the seed lexer.
func seedParse(input string) (*sqlast.SelectStmt, error) {
	toks, err := seedLex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: input}
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

type parser struct {
	toks  []sqllex.Token
	pos   int
	input string
}

func (p *parser) peek() sqllex.Token { return p.toks[p.pos] }
func (p *parser) atEOF() bool        { return p.peek().Kind == sqllex.TokEOF }
func (p *parser) save() int          { return p.pos }
func (p *parser) restore(mark int)   { p.pos = mark }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: %s (at offset %d in %q)", fmt.Sprintf(format, args...), p.peek().Pos, p.input)
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.Kind == sqllex.TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.peek().Text)
	}
	return nil
}

func (p *parser) accept(op string) bool {
	t := p.peek()
	if t.Kind == sqllex.TokOp && t.Text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(op string) error {
	if !p.accept(op) {
		return p.errorf("expected %q, found %q", op, p.peek().Text)
	}
	return nil
}

func (p *parser) parseSelectStmt() (*sqlast.SelectStmt, error) {
	core, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	stmt := sqlast.Wrap(core)
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
			return stmt, nil
		}
		rhs, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		stmt.Cores = append(stmt.Cores, rhs)
		stmt.Ops = append(stmt.Ops, op)
	}
}

func (p *parser) parseSelectCore() (*sqlast.SelectCore, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	core := &sqlast.SelectCore{}
	if p.acceptKeyword("DISTINCT") {
		core.Distinct = true
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		core.Items = append(core.Items, item)
		if !p.accept(",") {
			break
		}
	}
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
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			core.GroupBy = append(core.GroupBy, e)
			if !p.accept(",") {
				break
			}
		}
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
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := sqlast.OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			core.OrderBy = append(core.OrderBy, item)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		core.Limit = &n
		if p.acceptKeyword("OFFSET") {
			o, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			core.Offset = &o
		} else if p.accept(",") {
			cnt, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			core.Offset = core.Limit
			core.Limit = &cnt
		}
	}
	return core, nil
}

func (p *parser) parseInt() (int64, error) {
	t := p.peek()
	if t.Kind != sqllex.TokNumber {
		return 0, p.errorf("expected integer, found %q", t.Text)
	}
	p.pos++
	v := sqltypes.ParseLiteral(t.Text, false)
	if v.Kind() != sqltypes.KindInt {
		return 0, p.errorf("expected integer, found %q", t.Text)
	}
	return v.Int(), nil
}

func (p *parser) parseSelectItem() (sqlast.SelectItem, error) {
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

func (p *parser) parseFrom() (*sqlast.FromClause, error) {
	base, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	from := &sqlast.FromClause{Base: base}
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
			from.Joins = append(from.Joins, sqlast.Join{Type: jt, Table: ref})
			continue
		default:
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
		from.Joins = append(from.Joins, j)
	}
}

func (p *parser) parseTableRef() (sqlast.TableRef, error) {
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

func (p *parser) parseOptionalAlias() string {
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

func (p *parser) parseExpr() (sqlast.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (sqlast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &sqlast.Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (sqlast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &sqlast.Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (sqlast.Expr, error) {
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
			return &sqlast.Unary{Op: "NOT", X: e}, nil
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &sqlast.Unary{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (sqlast.Expr, error) {
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
		return &sqlast.ExistsExpr{Sub: sub}, nil
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
		in := &sqlast.InExpr{X: l, Not: not}
		if p.peek().Kind == sqllex.TokKeyword && p.peek().Text == "SELECT" {
			sub, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			in.Sub = sub
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.accept(",") {
					break
				}
			}
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
		return &sqlast.LikeExpr{X: l, Not: not, Pattern: pat}, nil
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
		return &sqlast.BetweenExpr{X: l, Not: not, Lo: lo, Hi: hi}, nil
	case p.acceptKeyword("IS"):
		isNot := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &sqlast.IsNullExpr{X: l, Not: isNot}, nil
	}
	for _, op := range []string{"=", "!=", "<>", "<=", ">=", "<", ">"} {
		if p.accept(op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "<>" {
				op = "!="
			}
			return &sqlast.Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (sqlast.Expr, error) {
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
		l = &sqlast.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (sqlast.Expr, error) {
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
		l = &sqlast.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (sqlast.Expr, error) {
	if p.accept("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*sqlast.Literal); ok && lit.Value.IsNumeric() {
			if lit.Value.Kind() == sqltypes.KindInt {
				return sqlast.Int(-lit.Value.Int()), nil
			}
			return sqlast.Lit(sqltypes.NewFloat(-lit.Value.Float())), nil
		}
		return &sqlast.Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (sqlast.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case sqllex.TokNumber:
		p.pos++
		return sqlast.Lit(sqltypes.ParseLiteral(t.Text, false)), nil
	case sqllex.TokString:
		p.pos++
		return sqlast.Lit(sqltypes.NewText(t.Text)), nil
	case sqllex.TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return sqlast.Lit(sqltypes.Null()), nil
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
				return &sqlast.ColumnRef{Table: t.Text, Column: "*"}, nil
			}
			if nt.Kind != sqllex.TokIdent && nt.Kind != sqllex.TokKeyword {
				return nil, p.errorf("expected column name after the dot following %q", t.Text)
			}
			p.pos++
			return &sqlast.ColumnRef{Table: t.Text, Column: nt.Text}, nil
		}
		return &sqlast.ColumnRef{Column: t.Text}, nil
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
				return &sqlast.SubqueryExpr{Sub: sub}, nil
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
			return &sqlast.ColumnRef{Column: "*"}, nil
		}
	}
	return nil, p.errorf("unexpected token %q", t.Text)
}

func (p *parser) parseFuncCall(name string) (sqlast.Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	fc := &sqlast.FuncCall{Name: strings.ToUpper(name)}
	if p.acceptKeyword("DISTINCT") {
		fc.Distinct = true
	}
	if p.accept("*") {
		fc.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if cr, ok := e.(*sqlast.ColumnRef); ok && cr.Column == "*" {
				fc.Star = true
			} else {
				fc.Args = append(fc.Args, e)
			}
			if !p.accept(",") {
				break
			}
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return fc, nil
}
