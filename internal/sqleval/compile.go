package sqleval

import (
	"fmt"
	"slices"
	"strings"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/stats"
)

// This file implements the compile phase: it resolves every column
// reference to a fixed (depth, offset) frame coordinate, expands stars,
// detects equi-join keys in ON/WHERE, and lowers the statement into a
// program of closures the execute phase runs without any per-row name
// resolution or environment allocation.

// scope is the compile-time mirror of the runtime frame: one binding per
// FROM entry, with the flat-row offset each table's columns start at.
// parent links to the enclosing query's scope for correlated subqueries.
// level is the scope's nesting (0 for the statement's own cores and their
// derived tables, parent's level + 1 otherwise); reach points at the
// compiler's record of the outermost level any resolution reached, which
// is how compileSubquery tells correlated subqueries from uncorrelated
// ones.
type scope struct {
	bindings []scopeBinding
	width    int
	parent   *scope
	level    int
	reach    *int
}

type scopeBinding struct {
	name   string // effective (alias or table) name, lower-case
	cols   []string
	offset int
}

// resolve finds (depth, flat offset) for a column reference, mirroring the
// legacy per-row env.lookup order: bindings of the nearest scope first, in
// FROM order, then outward through enclosing scopes. A successful
// resolution lowers *s.reach to the level of the scope it landed in.
func (s *scope) resolve(table, column string) (depth, idx int, ok bool) {
	tl, cl := strings.ToLower(table), strings.ToLower(column)
	d := 0
	for cur := s; cur != nil; cur = cur.parent {
		for bi := range cur.bindings {
			b := &cur.bindings[bi]
			if tl != "" && b.name != tl {
				continue
			}
			for ci, c := range b.cols {
				if c == cl {
					*s.reach = min(*s.reach, cur.level)
					return d, b.offset + ci, true
				}
			}
		}
		d++
	}
	return 0, 0, false
}

// rowCtx is the runtime environment a compiled expression evaluates in:
// the current flat frame row, the enclosing query's context for correlated
// references, and — during grouped projection — the current group's
// aggregate accumulators. The embedded execution carries what
// subquery closures need to recurse: the nesting depth, the caller's
// context.Context and the per-execution subquery memo; keeping it here
// (instead of on the executor) is what lets one executor run concurrent
// executions without shared mutable state.
type rowCtx struct {
	row    sqltypes.Row
	parent *rowCtx
	grp    *groupView
	execution
}

// groupView is what a grouped core's aggregate closures read for the group
// being projected: its row count (COUNT(*)) and one accumulator per
// aggregate call of the core, indexed by the call's slot.
type groupView struct {
	n    int64
	aggs []aggState
}

// compiledExpr evaluates one expression against a row context.
type compiledExpr func(ctx *rowCtx) (sqltypes.Value, error)

// program is a fully compiled statement: one compiled core per SELECT core
// plus the set operations combining them. A compound's ORDER BY and
// LIMIT/OFFSET, which the parser attaches to its last core, apply to the
// combined result: order holds each ORDER BY term resolved to an output
// column (projIdx), and limit and offset the window. The remaining fields
// are set on the top-level program only. nodes counts the plan-node ids
// the compiler assigned across the whole statement (joins, scans,
// filters, outputs — including subqueries), sizing the trace arrays
// ExplainPlan records actual row counts into. subs lists the statement's subquery expressions
// in compile order, and slots counts the uncorrelated ones, sizing the
// memo each execution allocates.
type program struct {
	cores         []*compiledCore
	ops           []sqlast.CompoundOp
	order         []orderKey
	limit, offset *int64
	nodes         int
	subs          []subquery
	slots         int
}

// subquery is one compiled IN, EXISTS or scalar subquery expression. slot
// indexes its entry in the per-execution memo when it is uncorrelated;
// correlated subqueries (slot -1) re-run once per outer row.
type subquery struct {
	prog *program
	slot int
}

// columns returns the output column labels (those of the first core, as
// with set operations in SQLite).
func (p *program) columns() []string { return p.cores[0].labels() }

// compiledCore is one lowered SELECT core.
type compiledCore struct {
	core  *sqlast.SelectCore
	scans []*tableScan
	joins []*joinPlan // joins[i] combines scans[i+1] into the frame
	// baseFilters are WHERE conjuncts pushed down to the base scan
	// (all-inner-join cores only); filters run after the joins.
	baseFilters []compiledExpr
	filters     []compiledExpr
	items       []compiledItem
	cols        []string // the items' labels (labels)
	groupBy     []compiledExpr
	having      compiledExpr
	orderKeys   []orderKey
	// aggs are the core's aggregate calls (in projection items, HAVING and
	// ORDER BY), each folded per group as frame rows arrive; the slot of a
	// call is its index here. grouped marks cores projected per group
	// (GROUP BY, an aggregate item, or HAVING).
	aggs    []aggSpec
	grouped bool
	// stream, when non-nil, lowers ORDER BY (and LIMIT/OFFSET) into a walk
	// of the base table's sorted index instead of materialize-and-sort.
	stream *streamPlan
	// stop is the record count at which the push path stops (stopAt).
	stop  int
	width int
	// id is the core's output plan node, filterID the post-join filter
	// stage's (-1 when the core has no post-join filters); est is the
	// cost-based estimate of the core's output rows (-1 outside cost mode).
	id       int
	filterID int
	est      float64
}

// labels returns the core's output column labels. Every result of the
// core shares the slice, so nothing may write to a result's Columns.
func (cc *compiledCore) labels() []string { return cc.cols }

// tableScan is one FROM entry: a base table, named and read from the
// executor's database at run time, or a compiled derived table. A plan
// holds no relation: a write to a table pinned by a snapshot swaps a copy
// in under the table's name, and the scan, its probes and their indexes
// must all read that copy. A base-table scan may carry a point probe
// (WHERE col = literal lowered at compile time) or a range probe
// (comparison/BETWEEN conjuncts on one column); execution then reads the
// matching rows off the column's secondary (hash or sorted) index instead
// of scanning Relation.Rows. At most one of probe/rprobe is set.
type tableScan struct {
	sub    *program    // derived table; nil for base tables
	table  string      // lower-cased base-table name; "" for derived
	cols   []string    // base-table column names, for plan rendering
	probe  *scanProbe  // optional point probe on a base table
	rprobe *rangeProbe // optional range probe on a base table
	offset int
	width  int
	id     int     // plan node id
	est    float64 // cost-based estimate of emitted rows; -1 outside cost mode
}

// scanProbe is a compiled point lookup: the column offset within the
// table's own row and the precomputed index key of the literal. val keeps
// the probed literal itself for plan rendering.
type scanProbe struct {
	col int
	key []byte
	val sqltypes.Value
}

// rangeProbe is a compiled range lookup on one column of a base table:
// up to two literal bounds, each inclusive or exclusive. Both bounds on
// one probe means an intersection (BETWEEN, or two one-sided conjuncts on
// the same column). nil bounds are unbounded on that side.
type rangeProbe struct {
	col            int
	lo, hi         *sqltypes.Value
	loIncl, hiIncl bool
}

// streamPlan marks a core whose single ORDER BY key is a column of its
// single base-table scan, so execution can walk the column's sorted index
// (optionally restricted to the scan's same-column range probe) instead of
// materializing every row and sorting — and stop early under LIMIT.
type streamPlan struct {
	col  int // column offset within the base table's own row
	desc bool
}

// rows produces the scan's rows: a derived table's result, the rows a
// point or range probe gathers, or the base table's own rows. The caller
// records the scan's EXPLAIN count.
func (ts *tableScan) rows(ex *Executor, e execution, outer *rowCtx) ([]sqltypes.Row, error) {
	if ts.sub != nil {
		rel, err := ex.runProgram(e.nested(), ts.sub, outer)
		if err != nil {
			return nil, err
		}
		return rel.Rows, nil
	}
	rows := ex.db.Table(ts.table).Rows
	switch {
	case ts.probe != nil:
		return gather(e.slab, rows, ex.db.Index(ts.table, ts.probe.col).Lookup(ts.probe.key)), nil
	case ts.rprobe != nil:
		rp := ts.rprobe
		// The span is in value order; the filter path this probe replaces
		// keeps rows in scan order, so re-sort the positions before
		// gathering (the span slice is shared — copy first).
		ids := e.slab.idsCopy(ex.db.Sorted(ts.table, rp.col).Range(rp.lo, rp.hi, rp.loIncl, rp.hiIncl))
		slices.Sort(ids)
		return gather(e.slab, rows, ids), nil
	}
	return rows, nil
}

// gather returns the rows at the given positions, in a scan buffer of sl.
func gather(sl *slab, rows []sqltypes.Row, ids []int32) []sqltypes.Row {
	out := sl.scan(len(ids))
	for i, ri := range ids {
		out[i] = rows[ri]
	}
	return out
}

// joinPlan describes how one table joins into the frame. eqAcc/eqNew are
// the paired equi-key offsets (eqAcc into the accumulated frame row, eqNew
// into the new table's own row); residual holds the remaining ON conjuncts
// plus any pushed-down WHERE conjuncts, evaluated on the combined row.
type joinPlan struct {
	left     bool
	eqAcc    []int
	eqNew    []int
	residual []compiledExpr
	id       int     // plan node id
	est      float64 // cost-based estimate of emitted rows; -1 outside cost mode
	estPairs float64 // cost-based estimate of candidate pairs; -1 outside cost mode
	// reuse marks joins whose build side is a whole base table, so
	// execution probes the table's key-tuple index instead of hashing a
	// side per execution; recorded for plan rendering.
	reuse bool
}

// compiledItem is one output column: its label, the rendered SQL of its
// source expression (for ORDER BY textual matching), and its value closure.
type compiledItem struct {
	label string
	sql   string
	fn    compiledExpr
}

// orderKey is one ORDER BY key: either a projected column index (positional
// references, alias references, and expressions textually identical to a
// projection item) or a compiled expression.
type orderKey struct {
	projIdx int // -1 when fn is used
	fn      compiledExpr
	desc    bool
}

// compiler lowers statements for one executor. The executor binding is
// what lets the compiler resolve table names and read statistics.
// nodes hands out plan-node ids, unique across the whole statement; reach
// is the outermost scope level a column resolution reached (see
// compileSubquery), subs the subquery expressions compiled so far and
// slots the memo slots handed to the uncorrelated ones. aggs, when
// non-nil, collects the aggregate calls compiled in a grouped position of
// the core being lowered (see compileAggregate); it is nil everywhere an
// aggregate may not be evaluated.
type compiler struct {
	ex    *Executor
	depth int
	nodes int
	reach int
	subs  []subquery
	slots int
	aggs  *[]aggSpec
}

func (c *compiler) nextNode() int {
	id := c.nodes
	c.nodes++
	return id
}

func (c *compiler) compileStmt(stmt *sqlast.SelectStmt, parent *scope) (*program, error) {
	if stmt == nil || len(stmt.Cores) == 0 {
		return nil, fmt.Errorf("sqleval: empty statement")
	}
	c.depth++
	defer func() { c.depth-- }()
	if c.depth > maxSubqueryDepth {
		return nil, fmt.Errorf("sqleval: subquery nesting exceeds %d", maxSubqueryDepth)
	}
	p := &program{ops: stmt.Ops}
	last := len(stmt.Cores) - 1
	for i, core := range stmt.Cores {
		if i > 0 && i == last {
			// The compound's ORDER BY and LIMIT move off its last core, which
			// compiles from a shallow copy: the statement is never mutated.
			cp := *core
			p.limit, p.offset = cp.Limit, cp.Offset
			cp.OrderBy, cp.Limit, cp.Offset = nil, nil, nil
			core = &cp
		}
		cc, err := c.lowerCore(core, parent)
		if err != nil {
			return nil, err
		}
		p.cores = append(p.cores, cc)
	}
	if last > 0 {
		for _, o := range stmt.Cores[last].OrderBy {
			idx, err := compoundOrderColumn(o, p.cores)
			if err != nil {
				return nil, err
			}
			p.order = append(p.order, orderKey{projIdx: idx, desc: o.Desc})
		}
	}
	return p, nil
}

// compoundOrderColumn resolves an ORDER BY term of a compound statement to
// an output column, as SQLite does: an integer is a 1-based column
// position; any other term names the first column, searching the cores
// left to right, whose alias or (unqualified) column name it spells, or
// whose expression it repeats.
func compoundOrderColumn(o sqlast.OrderItem, cores []*compiledCore) (int, error) {
	n := len(cores[0].items)
	if lit, ok := o.Expr.(*sqlast.Literal); ok && lit.Value.Kind() == sqltypes.KindInt {
		if k := lit.Value.Int(); k >= 1 && k <= int64(n) {
			return int(k - 1), nil
		}
		return 0, fmt.Errorf("sqleval: ORDER BY term out of range - should be between 1 and %d", n)
	}
	term := sqlast.ExprSQL(o.Expr)
	name := ""
	if cr, ok := o.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" {
		name = cr.Column
	}
	for _, cc := range cores {
		for i, it := range cc.items {
			if strings.EqualFold(it.sql, term) ||
				name != "" && (strings.EqualFold(it.label, name) || strings.EqualFold(bareColumn(it.sql), name)) {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("sqleval: ORDER BY term %s does not match any column in the result set", term)
}

// bareColumn returns the column name of a rendered column reference
// ("T1.origin" or "origin"), or "" for any other expression.
func bareColumn(sql string) string {
	dot := -1
	for i := 0; i < len(sql); i++ {
		switch c := sql[i]; {
		case c == '.' && dot < 0:
			dot = i
		case c == '_' || '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'z':
		default:
			return ""
		}
	}
	return sql[dot+1:]
}

// compileSubquery compiles the statement of an IN, EXISTS or scalar
// subquery expression evaluated in scope sc and classifies it. It is
// correlated when any column reference inside it — in a nested subquery or
// a derived table too — resolved to sc's level or further out; it then
// gets slot -1 and re-runs once per outer row. Otherwise it gets a memo
// slot and runs at most once per execution. The nested-loop reference
// mode classifies every subquery as correlated, keeping the per-row path
// as the parity oracle for the memo.
func (c *compiler) compileSubquery(stmt *sqlast.SelectStmt, sc *scope) (*program, int, error) {
	outer := c.reach
	c.reach = sc.level + 1 // every scope inside the subquery is deeper
	sub, err := c.compileStmt(stmt, sc)
	reached := c.reach
	c.reach = min(outer, reached)
	if err != nil {
		return nil, 0, err
	}
	slot := -1
	if reached > sc.level && c.ex.mode != nestedLoop {
		slot = c.slots
		c.slots++
	}
	c.subs = append(c.subs, subquery{prog: sub, slot: slot})
	return sub, slot, nil
}

// lowerCore lowers one SELECT core as written: its scans run in FROM
// order, and the cost pass only picks each scan's access path.
func (c *compiler) lowerCore(core *sqlast.SelectCore, parent *scope) (*compiledCore, error) {
	cc := &compiledCore{core: core, est: -1, filterID: -1,
		grouped: len(core.GroupBy) > 0 || core.HasAggregate()}
	// Aggregates register with this core only where it evaluates them per
	// group: projection items, HAVING and ORDER BY of a grouped core. In
	// FROM, WHERE and GROUP BY — and in an ungrouped core — an aggregate
	// compiles to the "outside grouped context" error.
	outerAggs := c.aggs
	c.aggs = nil
	defer func() { c.aggs = outerAggs }()
	collectAggs := func() {
		if cc.grouped {
			c.aggs = &cc.aggs
		}
	}
	sc := &scope{parent: parent, reach: &c.reach}
	if parent != nil {
		sc.level = parent.level + 1
	}
	allInner := true
	if core.From != nil {
		refs := []sqlast.TableRef{core.From.Base}
		for _, j := range core.From.Joins {
			refs = append(refs, j.Table)
		}
		for i, ref := range refs {
			ts, cols, err := c.compileScan(ref, parent)
			if err != nil {
				return nil, err
			}
			ts.offset = sc.width
			ts.id = c.nextNode()
			ts.est = -1
			sc.bindings = append(sc.bindings, scopeBinding{
				name:   strings.ToLower(ref.Effective()),
				cols:   cols,
				offset: ts.offset,
			})
			sc.width += ts.width
			cc.scans = append(cc.scans, ts)
			if i > 0 {
				// The progressive scope now covers both sides of the join,
				// so ON can reference every table joined so far but none
				// joined later (matching the legacy runtime lookup).
				join := core.From.Joins[i-1]
				jp, err := c.compileJoin(join, sc, ts)
				if err != nil {
					return nil, err
				}
				if jp.left {
					allInner = false
				}
				jp.id = c.nextNode()
				jp.est, jp.estPairs = -1, -1
				cc.joins = append(cc.joins, jp)
			}
		}
	}
	cc.width = sc.width

	// WHERE splits into conjuncts, claimed in three passes. Equi-join keys
	// across tables (a.x = b.y) go first: a key conjunct is col = col and a
	// probe candidate col OP literal, so the passes never compete, and the
	// cost pass needs every join's complete key set — spelled in ON or in
	// WHERE — to weigh prefiltering a reused build side. In cost mode
	// costProbes then lowers at most one col = literal, comparison or
	// BETWEEN conjunct per scan into an index probe (cost.go). Everything
	// unclaimed flows, in its original order, to the earliest scan or join
	// where its columns exist, or else to the post-join filter. Key
	// extraction and pushdown need an all-inner-join core: filtering before
	// null extension would change LEFT JOIN results.
	conjs := sqlast.Conjuncts(core.Where)
	claimed := make([]bool, len(conjs))
	pushdown := allInner && len(cc.scans) > 1 && c.ex.mode != nestedLoop
	if pushdown {
		for i, conj := range conjs {
			claimed[i] = c.pushEquiKey(cc, sc, conj)
		}
	}
	if c.ex.mode == costPlan {
		c.costProbes(cc, sc, conjs, claimed, allInner)
	}
	for i, conj := range conjs {
		if claimed[i] || pushdown && c.pushConjunct(cc, sc, conj) {
			continue
		}
		fn, err := c.compileExpr(conj, sc)
		if err != nil {
			return nil, err
		}
		cc.filters = append(cc.filters, fn)
	}

	collectAggs()
	items, starts, err := c.compileItems(core, sc)
	if err != nil {
		return nil, err
	}
	cc.items = items
	cc.cols = make([]string, len(items))
	for i, it := range items {
		cc.cols[i] = it.label
	}

	c.aggs = nil
	for _, g := range core.GroupBy {
		fn, err := c.compileExpr(g, sc)
		if err != nil {
			return nil, err
		}
		cc.groupBy = append(cc.groupBy, fn)
	}
	collectAggs()
	if core.Having != nil {
		if cc.having, err = c.compileExpr(core.Having, sc); err != nil {
			return nil, err
		}
	}

	for _, o := range core.OrderBy {
		idx, kexpr := orderKeyExpr(o, core.Items, items, starts)
		ok := orderKey{projIdx: idx, desc: o.Desc}
		if kexpr != nil {
			ok.projIdx = -1
			if ok.fn, err = c.compileExpr(kexpr, sc); err != nil {
				return nil, err
			}
		}
		cc.orderKeys = append(cc.orderKeys, ok)
	}
	c.lowerStream(cc, core, sc)
	cc.stop = stopAt(cc)
	if len(cc.filters) > 0 {
		cc.filterID = c.nextNode()
		if cc.est >= 0 {
			// Unclaimed post-join conjuncts keep the default one-sided
			// selectivity each; the product is the core's output estimate.
			for range cc.filters {
				cc.est *= stats.OneSidedFraction
			}
		}
	}
	cc.id = c.nextNode()
	for i, jp := range cc.joins {
		next := cc.scans[i+1]
		jp.reuse = c.ex.mode != indexFree && len(jp.eqNew) > 0 &&
			next.sub == nil && next.probe == nil && next.rprobe == nil
	}
	return cc, nil
}

// lowerStream recognizes cores whose ordering can stream off a sorted
// index: a single base-table scan, no grouping/aggregation/DISTINCT, and a
// single ORDER BY key that is a plain column of that table. The streamed
// walk visits rows in (value, scan-position) order — exactly the order the
// stable sort in finalize leaves them — so the core drops its sort keys
// and the paths stay bit-identical; under LIMIT the walk additionally
// stops early instead of materializing and sorting every row. A same-column range probe composes (the walk
// starts inside the probed span); any other probe keeps the regular path,
// which is already pre-filtered by the index.
func (c *compiler) lowerStream(cc *compiledCore, core *sqlast.SelectCore, sc *scope) {
	if c.ex.mode != costPlan {
		return
	}
	if core.Distinct || cc.grouped || len(cc.scans) != 1 {
		return
	}
	ts := cc.scans[0]
	if ts.table == "" || ts.probe != nil {
		return
	}
	if len(core.OrderBy) != 1 {
		return
	}
	cr, ok := core.OrderBy[0].Expr.(*sqlast.ColumnRef)
	if !ok || cr.Column == "*" {
		return
	}
	if cr.Table == "" {
		// An unqualified key naming a projection alias sorts by the
		// projected value (orderKeyExpr's alias rule), which may differ
		// from the same-named table column; leave those to the sort.
		for _, it := range core.Items {
			if it.Alias != "" && strings.EqualFold(it.Alias, cr.Column) {
				return
			}
		}
	}
	depth, idx, found := sc.resolve(cr.Table, cr.Column)
	if !found || depth != 0 {
		return
	}
	col := idx - ts.offset
	if ts.rprobe != nil && ts.rprobe.col != col {
		return
	}
	cc.stream = &streamPlan{col: col, desc: core.OrderBy[0].Desc}
	cc.orderKeys = nil // the walk delivers the order
}

func (c *compiler) compileScan(ref sqlast.TableRef, parent *scope) (*tableScan, []string, error) {
	if ref.Sub != nil {
		sub, err := c.compileStmt(ref.Sub, parent)
		if err != nil {
			return nil, nil, err
		}
		outCols := sub.columns()
		cols := make([]string, len(outCols))
		for i, col := range outCols {
			// Strip qualifiers so derived-table columns bind by bare name.
			if dot := strings.LastIndexByte(col, '.'); dot >= 0 {
				col = col[dot+1:]
			}
			cols[i] = strings.ToLower(col)
		}
		return &tableScan{sub: sub, width: len(cols)}, cols, nil
	}
	rel := c.ex.db.Table(ref.Name)
	if rel == nil {
		return nil, nil, fmt.Errorf("sqleval: unknown table %q", ref.Name)
	}
	cols := make([]string, len(rel.Columns))
	for i, col := range rel.Columns {
		cols[i] = strings.ToLower(col)
	}
	return &tableScan{table: strings.ToLower(ref.Name), cols: rel.Columns, width: len(cols)}, cols, nil
}

// compileJoin splits the ON condition into equi-key pairs (one side bound
// by earlier tables, the other by the table being joined) and a residual
// conjunct list evaluated per candidate pair.
func (c *compiler) compileJoin(j sqlast.Join, sc *scope, ts *tableScan) (*joinPlan, error) {
	jp := &joinPlan{left: j.Type == sqlast.LeftJoin}
	for _, conj := range sqlast.Conjuncts(j.On) {
		if accIdx, newIdx, ok := c.equiKey(conj, sc, ts); ok {
			jp.eqAcc = append(jp.eqAcc, accIdx)
			jp.eqNew = append(jp.eqNew, newIdx)
			continue
		}
		fn, err := c.compileExpr(conj, sc)
		if err != nil {
			return nil, err
		}
		jp.residual = append(jp.residual, fn)
	}
	return jp, nil
}

// equiKey recognizes conjuncts of the form a.x = b.y where exactly one side
// binds inside the table being joined and the other binds earlier in the
// same frame. Matching by encoded key equals the = operator: the join
// pipeline keys rows with Row.AppendCompareKeyCols, a Compare-consistent
// encoding (NULL keys never match, numerics compare as float64 across
// kinds).
func (c *compiler) equiKey(conj sqlast.Expr, sc *scope, ts *tableScan) (accIdx, newIdx int, ok bool) {
	if c.ex.mode == nestedLoop {
		return 0, 0, false
	}
	b, isBin := conj.(*sqlast.Binary)
	if !isBin || b.Op != "=" {
		return 0, 0, false
	}
	lref, lok := b.L.(*sqlast.ColumnRef)
	rref, rok := b.R.(*sqlast.ColumnRef)
	if !lok || !rok || lref.Column == "*" || rref.Column == "*" {
		return 0, 0, false
	}
	ld, li, lfound := sc.resolve(lref.Table, lref.Column)
	rd, ri, rfound := sc.resolve(rref.Table, rref.Column)
	if !lfound || !rfound || ld != 0 || rd != 0 {
		return 0, 0, false
	}
	lNew := li >= ts.offset
	rNew := ri >= ts.offset
	switch {
	case lNew && !rNew:
		return ri, li - ts.offset, true
	case rNew && !lNew:
		return li, ri - ts.offset, true
	default:
		return 0, 0, false
	}
}

// pushEquiKey claims a WHERE conjunct that is an equi-join key pair (a.x =
// b.y across tables), appending it to the join that completes its
// bindings. It runs before probe selection (see lowerCore) so every join's
// key set is complete when costProbes decides whether a scan serves as a
// reused index build side; keys keep their conjunct order, so composite
// key sequences follow the WHERE clause.
func (c *compiler) pushEquiKey(cc *compiledCore, sc *scope, conj sqlast.Expr) bool {
	maxOff, depth0Only, resolvable := c.conjunctSpan(conj, sc)
	if !resolvable || !depth0Only {
		return false
	}
	joinIdx := -1
	for i := 1; i < len(cc.scans); i++ {
		if maxOff >= cc.scans[i].offset {
			joinIdx = i - 1
		}
	}
	if joinIdx < 0 {
		return false
	}
	jp := cc.joins[joinIdx]
	accIdx, newIdx, ok := c.equiKey(conj, sc, cc.scans[joinIdx+1])
	if !ok {
		return false
	}
	jp.eqAcc = append(jp.eqAcc, accIdx)
	jp.eqNew = append(jp.eqNew, newIdx)
	return true
}

// pushConjunct tries to evaluate a WHERE conjunct earlier: a fully-bound
// conjunct attaches to the base scan or to the join that completes its
// bindings (equi keys were already claimed by pushEquiKey). Returns false
// when the conjunct must stay in the post-join filter (correlated
// references, bare stars, or resolution failures that should error in
// compileExpr).
func (c *compiler) pushConjunct(cc *compiledCore, sc *scope, conj sqlast.Expr) bool {
	maxOff, depth0Only, resolvable := c.conjunctSpan(conj, sc)
	if !resolvable || !depth0Only {
		return false
	}
	// Which join completes the bindings? joinIdx -1 means the base scan.
	joinIdx := -1
	for i := 1; i < len(cc.scans); i++ {
		if maxOff >= cc.scans[i].offset {
			joinIdx = i - 1
		}
	}
	if joinIdx >= 0 {
		fn, err := c.compileExpr(conj, sc)
		if err != nil {
			return false
		}
		jp := cc.joins[joinIdx]
		jp.residual = append(jp.residual, fn)
		return true
	}
	fn, err := c.compileExpr(conj, sc)
	if err != nil {
		return false
	}
	cc.baseFilters = append(cc.baseFilters, fn)
	return true
}

// rangeOperands extracts the (column, literal) pair of an ordering
// comparison, flipping the operator when the literal is on the left
// ("5 > col" probes like "col < 5").
func rangeOperands(b *sqlast.Binary) (*sqlast.ColumnRef, *sqlast.Literal, string) {
	switch b.Op {
	case "<", "<=", ">", ">=":
	default:
		return nil, nil, ""
	}
	if cr, ok := b.L.(*sqlast.ColumnRef); ok {
		if lit, ok := b.R.(*sqlast.Literal); ok {
			return cr, lit, b.Op
		}
	}
	if cr, ok := b.R.(*sqlast.ColumnRef); ok {
		if lit, ok := b.L.(*sqlast.Literal); ok {
			flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
			return cr, lit, flip[b.Op]
		}
	}
	return nil, nil, ""
}

// probeOperands extracts the (column, literal) pair of an = comparison,
// accepting both "col = lit" and "lit = col".
func probeOperands(b *sqlast.Binary) (*sqlast.ColumnRef, *sqlast.Literal) {
	if cr, ok := b.L.(*sqlast.ColumnRef); ok {
		if lit, ok := b.R.(*sqlast.Literal); ok {
			return cr, lit
		}
	}
	if cr, ok := b.R.(*sqlast.ColumnRef); ok {
		if lit, ok := b.L.(*sqlast.Literal); ok {
			return cr, lit
		}
	}
	return nil, nil
}

// conjunctSpan reports the maximum depth-0 frame offset a conjunct touches,
// whether every reference resolves at depth 0, and whether all references
// resolve at all. Subqueries make the conjunct unpushable (they may hold
// correlated references into the current frame that a progressive scope
// cannot see yet — keep them in the post-join filter).
func (c *compiler) conjunctSpan(conj sqlast.Expr, sc *scope) (maxOff int, depth0Only, resolvable bool) {
	depth0Only, resolvable = true, true
	sqlast.WalkExpr(conj, func(e sqlast.Expr) bool {
		switch x := e.(type) {
		case *sqlast.ColumnRef:
			if x.Column == "*" {
				resolvable = false
				return false
			}
			d, idx, ok := sc.resolve(x.Table, x.Column)
			if !ok {
				resolvable = false
				return false
			}
			if d != 0 {
				depth0Only = false
				return false
			}
			if idx > maxOff {
				maxOff = idx
			}
		case *sqlast.InExpr:
			if x.Sub != nil {
				depth0Only = false
				return false
			}
		case *sqlast.ExistsExpr, *sqlast.SubqueryExpr:
			depth0Only = false
			return false
		}
		return true
	})
	return maxOff, depth0Only, resolvable
}

// compileItems expands * and t.* against the frame and compiles every
// projection expression. Labels follow the legacy executor: the alias when
// present, else the rendered SQL of the expression. starts maps each core
// item to its first expanded output index, so alias references (ORDER BY
// an AS name) land on the right column even when a star precedes them.
func (c *compiler) compileItems(core *sqlast.SelectCore, sc *scope) (items []compiledItem, starts []int, err error) {
	addCol := func(b scopeBinding, ci int) {
		off := b.offset + ci
		sql := sqlast.ExprSQL(&sqlast.ColumnRef{Table: b.name, Column: b.cols[ci]})
		items = append(items, compiledItem{label: b.cols[ci], sql: sql, fn: columnAt(0, off)})
	}
	for _, it := range core.Items {
		starts = append(starts, len(items))
		switch {
		case it.Star && it.TableStar == "":
			for _, b := range sc.bindings {
				for ci := range b.cols {
					addCol(b, ci)
				}
			}
		case it.Star:
			name := strings.ToLower(it.TableStar)
			found := false
			for _, b := range sc.bindings {
				if b.name == name {
					for ci := range b.cols {
						addCol(b, ci)
					}
					found = true
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("sqleval: unknown table %q in %s.*", it.TableStar, it.TableStar)
			}
		default:
			label := it.Alias
			if label == "" {
				label = sqlast.ExprSQL(it.Expr)
			}
			fn, err := c.compileExpr(it.Expr, sc)
			if err != nil {
				return nil, nil, err
			}
			items = append(items, compiledItem{label: label, sql: sqlast.ExprSQL(it.Expr), fn: fn})
		}
	}
	return items, starts, nil
}

// orderKeyExpr resolves an ORDER BY expression: positional references
// (ORDER BY 2) and alias references resolve to the projected item; an
// expression textually identical to a projection item reuses its computed
// value (which also lets grouped ORDER BY count(*) hit the aggregate
// result); anything else evaluates in the row context.
func orderKeyExpr(o sqlast.OrderItem, coreItems []sqlast.SelectItem, items []compiledItem, starts []int) (projIdx int, expr sqlast.Expr) {
	if lit, ok := o.Expr.(*sqlast.Literal); ok && lit.Value.Kind() == sqltypes.KindInt {
		idx := int(lit.Value.Int()) - 1
		if idx >= 0 && idx < len(items) {
			return idx, nil
		}
	}
	if cr, ok := o.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" {
		for i, it := range coreItems {
			if it.Alias != "" && strings.EqualFold(it.Alias, cr.Column) {
				return starts[i], nil
			}
		}
	}
	oSQL := sqlast.ExprSQL(o.Expr)
	for i, it := range items {
		if strings.EqualFold(it.sql, oSQL) {
			return i, nil
		}
	}
	return -1, o.Expr
}

// columnAt returns the closure for a resolved column coordinate.
func columnAt(depth, idx int) compiledExpr {
	if depth == 0 {
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			return ctx.row[idx], nil
		}
	}
	return func(ctx *rowCtx) (sqltypes.Value, error) {
		cur := ctx
		for d := depth; d > 0; d-- {
			cur = cur.parent
		}
		return cur.row[idx], nil
	}
}
