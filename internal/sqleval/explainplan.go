package sqleval

import (
	"context"
	"fmt"
	"strings"

	"cyclesql/internal/plan"
	"cyclesql/internal/sqlast"
)

// This file surfaces the planner's decisions: PlanTree takes the plan the
// executor runs (its cached plan, or a fresh compile it caches), runs one
// execution whose trace records per-node actual row counts, then folds the
// compiled structure and the trace into a plan.Tree. ExplainPlan is the
// rendered form. The trace belongs to that one execution, so the counts
// are those of the plan that actually ran, concurrent executions never
// see it, and untraced executions pay a nil check per recording site.

// execTrace accumulates actual row counts per plan node. Counts start at
// -1 ("never executed") and accumulate across executions, so a correlated
// derived table re-run per outer row reports its total rows produced.
type execTrace struct {
	rows  []int64
	pairs []int64
}

func newExecTrace(nodes int) *execTrace {
	t := &execTrace{rows: make([]int64, nodes), pairs: make([]int64, nodes)}
	for i := range t.rows {
		t.rows[i], t.pairs[i] = -1, -1
	}
	return t
}

func (t *execTrace) addRows(id int, n int64) {
	if id < 0 || id >= len(t.rows) {
		return
	}
	if t.rows[id] < 0 {
		t.rows[id] = 0
	}
	t.rows[id] += n
}

func (t *execTrace) addPairs(id int, n int64) {
	if id < 0 || id >= len(t.pairs) {
		return
	}
	if t.pairs[id] < 0 {
		t.pairs[id] = 0
	}
	t.pairs[id] += n
}

func (t *execTrace) rowsAt(id int) int64 {
	if t == nil || id < 0 || id >= len(t.rows) {
		return -1
	}
	return t.rows[id]
}

func (t *execTrace) pairsAt(id int) int64 {
	if t == nil || id < 0 || id >= len(t.pairs) {
		return -1
	}
	return t.pairs[id]
}

// PlanTree executes stmt once through the plan Run executes it with and
// returns the plan tree with estimated and actual row counts per node.
func (ex *Executor) PlanTree(ctx context.Context, stmt *sqlast.SelectStmt) (*plan.Tree, error) {
	prog, err := ex.compiled(stmt)
	if err != nil {
		return nil, err
	}
	sl := slabs.Get().(*slab)
	defer sl.release()
	e := newExecution(ctx, prog, sl)
	e.trace = newExecTrace(prog.nodes)
	if _, err := ex.runProgram(e, prog, nil); err != nil {
		return nil, err
	}
	return &plan.Tree{Root: programNode(prog, e.trace)}, nil
}

// ExplainPlan is PlanTree rendered to the deterministic textual form the
// golden plan snapshots pin.
func (ex *Executor) ExplainPlan(ctx context.Context, stmt *sqlast.SelectStmt) (string, error) {
	tree, err := ex.PlanTree(ctx, stmt)
	if err != nil {
		return "", err
	}
	return tree.Render(), nil
}

func programNode(p *program, tr *execTrace) *plan.Node {
	if len(p.cores) == 1 {
		return coreNode(p.cores[0], tr)
	}
	ops := make([]string, len(p.ops))
	for i, op := range p.ops {
		ops[i] = strings.ToUpper(string(op))
	}
	n := &plan.Node{Kind: "compound", Label: strings.Join(ops, ", "),
		EstRows: -1, ActRows: -1, ActPairs: -1}
	for _, cc := range p.cores {
		n.Children = append(n.Children, coreNode(cc, tr))
	}
	return n
}

func coreNode(cc *compiledCore, tr *execTrace) *plan.Node {
	kind := "project"
	switch {
	case cc.stream != nil:
		kind = "stream"
	case cc.grouped:
		kind = "aggregate"
	}
	out := &plan.Node{Kind: kind, EstRows: cc.est,
		ActRows: tr.rowsAt(cc.id), ActPairs: -1}
	child := frameNode(cc, len(cc.scans)-1, tr)
	if cc.filterID >= 0 {
		child = &plan.Node{Kind: "filter",
			Label:   fmt.Sprintf("%d conjuncts", len(cc.filters)),
			EstRows: -1, ActRows: tr.rowsAt(cc.filterID), ActPairs: -1,
			Children: []*plan.Node{child}}
	}
	if child != nil {
		out.Children = []*plan.Node{child}
	}
	return out
}

// frameNode renders the frame after scans[0..i] have been joined: a left-
// deep tree of join nodes over scan leaves.
func frameNode(cc *compiledCore, i int, tr *execTrace) *plan.Node {
	if i < 0 {
		return nil // SELECT without FROM
	}
	if i == 0 {
		return scanNode(cc, cc.scans[0], tr)
	}
	jp := cc.joins[i-1]
	kind := "join"
	if jp.left {
		kind = "left join"
	}
	n := &plan.Node{Kind: kind,
		Label:    joinLabel(cc, i, jp),
		Detail:   joinDetail(jp),
		EstRows:  jp.est,
		ActRows:  tr.rowsAt(jp.id),
		ActPairs: tr.pairsAt(jp.id),
		Children: []*plan.Node{frameNode(cc, i-1, tr), scanNode(cc, cc.scans[i], tr)},
	}
	return n
}

func scanNode(cc *compiledCore, ts *tableScan, tr *execTrace) *plan.Node {
	act := tr.rowsAt(ts.id)
	if ts.sub != nil {
		return &plan.Node{Kind: "derived", EstRows: ts.est, ActRows: act, ActPairs: -1,
			Children: []*plan.Node{programNode(ts.sub, tr)}}
	}
	switch {
	case ts.probe != nil:
		return &plan.Node{Kind: "probe",
			Label:   fmt.Sprintf("%s.%s = %s", ts.table, colName(ts, ts.probe.col), ts.probe.val.SQLLiteral()),
			EstRows: ts.est, ActRows: act, ActPairs: -1}
	case ts.rprobe != nil:
		return &plan.Node{Kind: "range",
			Label:   rangeLabel(ts),
			EstRows: ts.est, ActRows: act, ActPairs: -1}
	default:
		return &plan.Node{Kind: "scan", Label: ts.table,
			EstRows: ts.est, ActRows: act, ActPairs: -1}
	}
}

// colName names one column of a base-table scan by its offset within the
// table's own row.
func colName(ts *tableScan, col int) string {
	if col >= 0 && col < len(ts.cols) {
		return ts.cols[col]
	}
	return fmt.Sprintf("#%d", col)
}

// rangeLabel renders a range probe as the canonical chained comparison,
// e.g. "Flight.distance > 500" or "10 <= Aircraft.seats < 20".
func rangeLabel(ts *tableScan) string {
	rp := ts.rprobe
	name := fmt.Sprintf("%s.%s", ts.table, colName(ts, rp.col))
	var b strings.Builder
	if rp.lo != nil {
		b.WriteString(rp.lo.SQLLiteral())
		b.WriteString(cmpOp(rp.loIncl))
	}
	b.WriteString(name)
	if rp.hi != nil {
		b.WriteString(cmpOp(rp.hiIncl))
		b.WriteString(rp.hi.SQLLiteral())
	}
	return b.String()
}

func cmpOp(incl bool) string {
	if incl {
		return " <= "
	}
	return " < "
}

// joinLabel names the equi-key pairing of the i-th join: the frame-side
// columns against the new table's columns, "cross" when there are none.
func joinLabel(cc *compiledCore, i int, jp *joinPlan) string {
	if len(jp.eqAcc) == 0 {
		return "cross"
	}
	next := cc.scans[i]
	parts := make([]string, len(jp.eqAcc))
	for k := range jp.eqAcc {
		parts[k] = fmt.Sprintf("%s = %s.%s",
			frameColName(cc, jp.eqAcc[k]),
			next.table, colName(next, jp.eqNew[k]))
	}
	return strings.Join(parts, ", ")
}

// frameColName names a column by its offset in the accumulated frame row:
// it finds the scan covering the offset and reads the column name from its
// base table's columns (or its derived program's output labels).
func frameColName(cc *compiledCore, off int) string {
	for _, ts := range cc.scans {
		if off < ts.offset || off >= ts.offset+ts.width {
			continue
		}
		col := off - ts.offset
		if ts.sub != nil {
			cols := ts.sub.columns()
			if col < len(cols) {
				return cols[col]
			}
			return fmt.Sprintf("#%d", off)
		}
		return fmt.Sprintf("%s.%s", ts.table, colName(ts, col))
	}
	return fmt.Sprintf("#%d", off)
}

// joinDetail names the execution strategy the join compiled to.
func joinDetail(jp *joinPlan) string {
	switch {
	case len(jp.eqAcc) == 0:
		return "nested loop"
	case jp.reuse:
		return "index build"
	default:
		return "hash build"
	}
}
