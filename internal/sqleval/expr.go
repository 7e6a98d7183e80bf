package sqleval

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
)

// compileExpr lowers an expression into a closure evaluated against a row
// context. Column references are resolved to frame coordinates here, once
// per statement; the closures never touch names again. SQL tri-state logic
// is represented with NULL as the unknown truth value, exactly as in the
// legacy interpreter.
func (c *compiler) compileExpr(e sqlast.Expr, sc *scope) (compiledExpr, error) {
	switch x := e.(type) {
	case *sqlast.Literal:
		v := x.Value
		return func(*rowCtx) (sqltypes.Value, error) { return v, nil }, nil
	case *sqlast.ColumnRef:
		if x.Column == "*" {
			return nil, fmt.Errorf("sqleval: bare * outside COUNT")
		}
		depth, idx, ok := sc.resolve(x.Table, x.Column)
		if !ok {
			return nil, fmt.Errorf("sqleval: unknown column %s", sqlast.ExprSQL(x))
		}
		return columnAt(depth, idx), nil
	case *sqlast.Unary:
		fn, err := c.compileExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return func(ctx *rowCtx) (sqltypes.Value, error) {
				v, err := fn(ctx)
				if err != nil || v.IsNull() {
					return sqltypes.Null(), err
				}
				return sqltypes.NewBool(!v.Truthy()), nil
			}, nil
		}
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := fn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			f, ok := v.AsFloat()
			if !ok {
				return sqltypes.Null(), nil
			}
			if v.Kind() == sqltypes.KindInt {
				return sqltypes.NewInt(-v.Int()), nil
			}
			return sqltypes.NewFloat(-f), nil
		}, nil
	case *sqlast.Binary:
		return c.compileBinary(x, sc)
	case *sqlast.FuncCall:
		return c.compileFunc(x, sc)
	case *sqlast.InExpr:
		return c.compileIn(x, sc)
	case *sqlast.LikeExpr:
		xfn, err := c.compileExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		pfn, err := c.compileExpr(x.Pattern, sc)
		if err != nil {
			return nil, err
		}
		not := x.Not
		// A literal pattern is lowered once, here, rather than per row.
		lit, constant := x.Pattern.(*sqlast.Literal)
		var lowered string
		if constant && !lit.Value.IsNull() {
			lowered = strings.ToLower(lit.Value.String())
		}
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := xfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			p, err := pfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if v.IsNull() || p.IsNull() {
				return sqltypes.Null(), nil
			}
			pattern := lowered
			if !constant {
				pattern = strings.ToLower(p.String())
			}
			m := likeFold(v.String(), pattern)
			return sqltypes.NewBool(m != not), nil
		}, nil
	case *sqlast.BetweenExpr:
		xfn, err := c.compileExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		lofn, err := c.compileExpr(x.Lo, sc)
		if err != nil {
			return nil, err
		}
		hifn, err := c.compileExpr(x.Hi, sc)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := xfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			lo, err := lofn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			hi, err := hifn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if v.IsNull() || lo.IsNull() || hi.IsNull() {
				return sqltypes.Null(), nil
			}
			in := sqltypes.Compare(v, lo) >= 0 && sqltypes.Compare(v, hi) <= 0
			return sqltypes.NewBool(in != not), nil
		}, nil
	case *sqlast.IsNullExpr:
		fn, err := c.compileExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := fn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return sqltypes.NewBool(v.IsNull() != not), nil
		}, nil
	case *sqlast.ExistsExpr:
		sub, slot, err := c.compileSubquery(x.Sub, sc)
		if err != nil {
			return nil, err
		}
		ex, not := c.ex, x.Not
		if slot >= 0 {
			return func(ctx *rowCtx) (sqltypes.Value, error) {
				m, err := ex.memoized(ctx, sub, slot, fillExists)
				if err != nil {
					return sqltypes.Value{}, err
				}
				return sqltypes.NewBool(m.val.Truthy() != not), nil
			}, nil
		}
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			var found bool
			err := ex.runSub(ctx, sub, func(rel *sqltypes.Relation) { found = rel.NumRows() > 0 })
			if err != nil {
				return sqltypes.Value{}, err
			}
			return sqltypes.NewBool(found != not), nil
		}, nil
	case *sqlast.SubqueryExpr:
		sub, slot, err := c.compileSubquery(x.Sub, sc)
		if err != nil {
			return nil, err
		}
		ex := c.ex
		if slot >= 0 {
			return func(ctx *rowCtx) (sqltypes.Value, error) {
				m, err := ex.memoized(ctx, sub, slot, fillScalar)
				if err != nil {
					return sqltypes.Value{}, err
				}
				return m.val, nil
			}, nil
		}
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			var v sqltypes.Value
			err := ex.runSub(ctx, sub, func(rel *sqltypes.Relation) { v = scalarOf(rel) })
			if err != nil {
				return sqltypes.Value{}, err
			}
			return v, nil
		}, nil
	case nil:
		return nil, fmt.Errorf("sqleval: nil expression")
	default:
		return nil, fmt.Errorf("sqleval: unsupported expression %T", e)
	}
}

func (c *compiler) compileBinary(x *sqlast.Binary, sc *scope) (compiledExpr, error) {
	lfn, err := c.compileExpr(x.L, sc)
	if err != nil {
		return nil, err
	}
	rfn, err := c.compileExpr(x.R, sc)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "AND":
		// Kleene three-valued logic with short-circuiting on the
		// determining value.
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			l, err := lfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if !l.IsNull() && !l.Truthy() {
				return sqltypes.NewBool(false), nil
			}
			r, err := rfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if !r.IsNull() && !r.Truthy() {
				return sqltypes.NewBool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return sqltypes.Null(), nil
			}
			return sqltypes.NewBool(true), nil
		}, nil
	case "OR":
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			l, err := lfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if l.Truthy() {
				return sqltypes.NewBool(true), nil
			}
			r, err := rfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if r.Truthy() {
				return sqltypes.NewBool(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return sqltypes.Null(), nil
			}
			return sqltypes.NewBool(false), nil
		}, nil
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		var test func(int) bool
		switch x.Op {
		case "=":
			test = func(c int) bool { return c == 0 }
		case "!=", "<>":
			test = func(c int) bool { return c != 0 }
		case "<":
			test = func(c int) bool { return c < 0 }
		case "<=":
			test = func(c int) bool { return c <= 0 }
		case ">":
			test = func(c int) bool { return c > 0 }
		default:
			test = func(c int) bool { return c >= 0 }
		}
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			l, err := lfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			r, err := rfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if l.IsNull() || r.IsNull() {
				return sqltypes.Null(), nil
			}
			return sqltypes.NewBool(test(sqltypes.Compare(l, r))), nil
		}, nil
	case "+", "-", "*", "/", "%":
		op := x.Op
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			l, err := lfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			r, err := rfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return arith(op, l, r), nil
		}, nil
	default:
		return nil, fmt.Errorf("sqleval: unknown operator %q", x.Op)
	}
}

func arith(op string, l, r sqltypes.Value) sqltypes.Value {
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null()
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return sqltypes.Null()
	}
	bothInt := l.Kind() == sqltypes.KindInt && r.Kind() == sqltypes.KindInt
	switch op {
	case "+":
		if bothInt {
			return sqltypes.NewInt(l.Int() + r.Int())
		}
		return sqltypes.NewFloat(lf + rf)
	case "-":
		if bothInt {
			return sqltypes.NewInt(l.Int() - r.Int())
		}
		return sqltypes.NewFloat(lf - rf)
	case "*":
		if bothInt {
			return sqltypes.NewInt(l.Int() * r.Int())
		}
		return sqltypes.NewFloat(lf * rf)
	case "/":
		if rf == 0 {
			return sqltypes.Null()
		}
		if bothInt {
			return sqltypes.NewInt(l.Int() / r.Int())
		}
		return sqltypes.NewFloat(lf / rf)
	case "%":
		if rf == 0 {
			return sqltypes.Null()
		}
		if bothInt {
			return sqltypes.NewInt(l.Int() % r.Int())
		}
		return sqltypes.NewFloat(math.Mod(lf, rf))
	}
	return sqltypes.Null()
}

func (c *compiler) compileIn(x *sqlast.InExpr, sc *scope) (compiledExpr, error) {
	xfn, err := c.compileExpr(x.X, sc)
	if err != nil {
		return nil, err
	}
	not := x.Not
	membership := func(v sqltypes.Value, members []sqltypes.Value) sqltypes.Value {
		if v.IsNull() {
			return sqltypes.Null()
		}
		found := false
		sawNull := false
		for _, m := range members {
			if m.IsNull() {
				sawNull = true
				continue
			}
			if sqltypes.Compare(v, m) == 0 {
				found = true
				break
			}
		}
		if !found && sawNull {
			return sqltypes.Null()
		}
		return sqltypes.NewBool(found != not)
	}
	if x.Sub != nil {
		sub, slot, err := c.compileSubquery(x.Sub, sc)
		if err != nil {
			return nil, err
		}
		ex := c.ex
		if slot >= 0 {
			// Uncorrelated: the members are hashed once per execution. The
			// probe is still evaluated first and the set filled even for a
			// NULL probe, so errors surface exactly as on the per-row path.
			return func(ctx *rowCtx) (sqltypes.Value, error) {
				v, err := xfn(ctx)
				if err != nil {
					return sqltypes.Value{}, err
				}
				m, err := ex.memoized(ctx, sub, slot, fillMembers)
				if err != nil {
					return sqltypes.Value{}, err
				}
				if v.IsNull() {
					return sqltypes.Null(), nil
				}
				found := m.members.contains(v)
				if !found && m.members.sawNull {
					return sqltypes.Null(), nil
				}
				return sqltypes.NewBool(found != not), nil
			}, nil
		}
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := xfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			var members []sqltypes.Value
			err = ex.runSub(ctx, sub, func(rel *sqltypes.Relation) {
				for _, row := range rel.Rows {
					if len(row) > 0 {
						members = append(members, row[0])
					}
				}
			})
			if err != nil {
				return sqltypes.Value{}, err
			}
			return membership(v, members), nil
		}, nil
	}
	var memberFns []compiledExpr
	var consts []sqltypes.Value
	for _, le := range x.List {
		if lit, ok := le.(*sqlast.Literal); ok {
			consts = append(consts, lit.Value)
		}
		fn, err := c.compileExpr(le, sc)
		if err != nil {
			return nil, err
		}
		memberFns = append(memberFns, fn)
	}
	if len(consts) == len(memberFns) {
		// An all-literal list is built once, here, not once per row.
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := xfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return membership(v, consts), nil
		}, nil
	}
	return func(ctx *rowCtx) (sqltypes.Value, error) {
		v, err := xfn(ctx)
		if err != nil {
			return sqltypes.Value{}, err
		}
		members := make([]sqltypes.Value, len(memberFns))
		for i, fn := range memberFns {
			if members[i], err = fn(ctx); err != nil {
				return sqltypes.Value{}, err
			}
		}
		return membership(v, members), nil
	}, nil
}

func (c *compiler) compileFunc(x *sqlast.FuncCall, sc *scope) (compiledExpr, error) {
	if x.IsAggregate() {
		return c.compileAggregate(x, sc)
	}
	switch x.Name {
	case "ABS":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("sqleval: ABS expects 1 argument")
		}
		fn, err := c.compileExpr(x.Args[0], sc)
		if err != nil {
			return nil, err
		}
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := fn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if v.IsNull() {
				return sqltypes.Null(), nil
			}
			if v.Kind() == sqltypes.KindInt {
				if v.Int() < 0 {
					return sqltypes.NewInt(-v.Int()), nil
				}
				return v, nil
			}
			f, ok := v.AsFloat()
			if !ok {
				return sqltypes.Null(), nil
			}
			return sqltypes.NewFloat(math.Abs(f)), nil
		}, nil
	default:
		return nil, fmt.Errorf("sqleval: unknown function %s", x.Name)
	}
}

// compileAggregate lowers an aggregate call. In a grouped position of a
// grouped core (c.aggs non-nil) the call takes the next accumulator slot
// of the core, and its closure reads the current group's accumulator,
// which the core's sink filled as rows arrived (project.go). Anywhere else
// the closure errors when evaluated, preserving the legacy runtime check.
// The argument compiles with no slots to register into: an aggregate
// nested inside it runs per row, outside any grouped context, and errors.
func (c *compiler) compileAggregate(x *sqlast.FuncCall, sc *scope) (compiledExpr, error) {
	name := x.Name
	if x.Star && name != "COUNT" {
		return nil, fmt.Errorf("sqleval: %s(*) is not valid", name)
	}
	if !x.Star && len(x.Args) != 1 {
		return nil, fmt.Errorf("sqleval: aggregate %s expects 1 argument", name)
	}
	aggs := c.aggs
	var arg compiledExpr
	if !x.Star {
		c.aggs = nil
		fn, err := c.compileExpr(x.Args[0], sc)
		c.aggs = aggs
		if err != nil {
			return nil, err
		}
		arg = fn
	}
	switch {
	case aggs == nil:
		return func(*rowCtx) (sqltypes.Value, error) {
			return sqltypes.Value{}, fmt.Errorf("sqleval: aggregate %s outside grouped context", name)
		}, nil
	case x.Star:
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			return sqltypes.NewInt(ctx.grp.n), nil
		}, nil
	}
	slot, kind := len(*aggs), aggKinds[name]
	*aggs = append(*aggs, aggSpec{kind: kind, distinct: x.Distinct, arg: arg})
	return func(ctx *rowCtx) (sqltypes.Value, error) {
		return ctx.grp.aggs[slot].value(kind)
	}, nil
}

// likeFold reports whether strings.ToLower(s) matches the LIKE pattern
// lowerPattern, which is already lower-cased. An ASCII s is folded inside
// the matcher instead of copied; any other s goes through strings.ToLower,
// whose Unicode folding SQLite's ASCII-only default does not share.
func likeFold(s, lowerPattern string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return likeMatch(strings.ToLower(s), lowerPattern)
		}
	}
	return likeMatch(s, lowerPattern)
}

// likeMatch implements SQL LIKE with % and _ wildcards by dynamic
// programming over bytes, with s's ASCII upper-case letters folded to
// lower case; pattern carries none. The DP row lives on the stack for
// values of up to 63 bytes.
func likeMatch(s, pattern string) bool {
	m, n := len(s), len(pattern)
	var short [64]bool
	var dp []bool
	if m < len(short) {
		dp = short[:m+1]
	} else {
		dp = make([]bool, m+1)
	}
	dp[0] = true
	for j := 1; j <= n; j++ {
		prevDiag := dp[0]
		pc := pattern[j-1]
		dp[0] = dp[0] && pc == '%'
		for i := 1; i <= m; i++ {
			cur := dp[i]
			switch pc {
			case '%':
				dp[i] = dp[i] || dp[i-1]
			case '_':
				dp[i] = prevDiag
			default:
				c := s[i-1]
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				dp[i] = prevDiag && c == pc
			}
			prevDiag = cur
		}
	}
	return dp[m]
}
