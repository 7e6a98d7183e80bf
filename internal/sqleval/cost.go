package sqleval

import (
	"slices"
	"strings"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/stats"
)

// Cost-based access-path selection, the lowering every production
// executor runs. Each choice is an estimate derived from internal/stats:
// each scan probes its most selective candidate, a probe whose estimated
// span covers most of the table is skipped, a reused build side is
// prefiltered when fewer candidate pairs outweigh the per-execution hash
// build, and a narrow class of aggregate-only join cores is reordered by
// estimated frame growth. Every choice is among result-identical lowerings — an
// unclaimed conjunct simply stays a filter, a prefiltered build side
// routes through the generic hash join, a reorder is restricted to
// order-insensitive outputs — so a misestimate costs time, never
// correctness. TestPlanParity pins exactly that.

const (
	// maxProbeFraction is the estimated selectivity above which a probe
	// is skipped: materializing most of the table off an index costs more
	// than scanning it with the conjunct as a filter.
	maxProbeFraction = 0.75
	// buildPenalty weighs materializing and hashing one prefiltered
	// build-side row (per execution) against visiting one candidate pair.
	buildPenalty = 4
)

// probeCand is one WHERE conjunct (or merged pair of one-sided range
// conjuncts) that could lower into a probe on one scan.
type probeCand struct {
	cis            []int // conjunct indexes the candidate claims
	col            int   // column within the scan's own row
	point          bool
	val            sqltypes.Value // point literal
	key            []byte         // point probe key
	lo, hi         *sqltypes.Value
	loIncl, hiIncl bool
}

// costProbes lowers WHERE conjuncts into index probes: it gathers every
// probe candidate, then walks the scans in frame order choosing at most
// one probe per scan by estimated selectivity, carrying a progressive estimate of the accumulated frame
// so the keyed-build-side decision at each join sees the estimated probe
// count it will face. Chosen candidates mark their conjuncts claimed;
// everything else flows to the pushdown/filter pass unchanged.
func (c *compiler) costProbes(cc *compiledCore, sc *scope, conjs []sqlast.Expr, claimed []bool, allInner bool) {
	cands := make([][]probeCand, len(cc.scans))
	for i, conj := range conjs {
		if claimed[i] {
			continue
		}
		si, cand, ok := c.probeCandidate(cc, sc, conj, i)
		if !ok {
			continue
		}
		if !cand.point && mergeRange(cands[si], &cand) {
			continue
		}
		cands[si] = append(cands[si], cand)
	}

	runEst := -1.0
	for si, ts := range cc.scans {
		ts.est = -1
		if ts.rel != nil {
			ts.est = float64(len(ts.rel.Rows))
		}
		if chosen, est := c.chooseProbe(cc, ts, si, cands[si], allInner, runEst); chosen != nil {
			ts.est = est
			if chosen.point {
				ts.probe = &scanProbe{col: chosen.col, key: chosen.key, val: chosen.val}
			} else {
				ts.rprobe = &rangeProbe{col: chosen.col, lo: chosen.lo, hi: chosen.hi,
					loIncl: chosen.loIncl, hiIncl: chosen.hiIncl}
			}
			for _, ci := range chosen.cis {
				claimed[ci] = true
			}
		}
		if si == 0 {
			runEst = ts.est
			continue
		}
		jp := cc.joins[si-1]
		jp.est, jp.estPairs = c.joinEstimate(ts, jp, runEst)
		runEst = jp.est
	}
	cc.est = runEst
}

// probeCandidate parses one conjunct into a probe candidate and resolves
// the base-table scan it targets. It accepts col = literal (either order)
// as a point probe on the column's hash index, and col OP literal for the
// ordering operators (literal-first flips) or col BETWEEN lo AND hi as a
// range probe on its sorted index. A chosen probe fully subsumes its
// conjuncts, so nothing is re-checked per row: the hash index's
// AppendCompareKey encoding equates values exactly when = does, the
// sorted index orders rows by sqltypes.Compare, the relation the ordering
// operators test, and NULL rows sit in neither, matching the operators'
// NULL rejection.
func (c *compiler) probeCandidate(cc *compiledCore, sc *scope, conj sqlast.Expr, ci int) (int, probeCand, bool) {
	var cr *sqlast.ColumnRef
	cand := probeCand{cis: []int{ci}}
	switch x := conj.(type) {
	case *sqlast.Binary:
		if x.Op == "=" {
			ref, lit := probeOperands(x)
			if ref == nil || lit.Value.IsNull() {
				return 0, cand, false
			}
			key, ok := lit.Value.AppendCompareKey(nil)
			if !ok {
				return 0, cand, false
			}
			cr = ref
			cand.point, cand.val, cand.key = true, lit.Value, key
			break
		}
		ref, lit, op := rangeOperands(x)
		if ref == nil || lit.Value.IsNull() {
			return 0, cand, false
		}
		cr = ref
		v := lit.Value
		switch op {
		case "<":
			cand.hi = &v
		case "<=":
			cand.hi, cand.hiIncl = &v, true
		case ">":
			cand.lo = &v
		case ">=":
			cand.lo, cand.loIncl = &v, true
		}
	case *sqlast.BetweenExpr:
		if x.Not {
			return 0, cand, false
		}
		ref, ok := x.X.(*sqlast.ColumnRef)
		if !ok {
			return 0, cand, false
		}
		loLit, loOk := x.Lo.(*sqlast.Literal)
		hiLit, hiOk := x.Hi.(*sqlast.Literal)
		if !loOk || !hiOk || loLit.Value.IsNull() || hiLit.Value.IsNull() {
			return 0, cand, false
		}
		cr = ref
		lv, hv := loLit.Value, hiLit.Value
		cand.lo, cand.loIncl, cand.hi, cand.hiIncl = &lv, true, &hv, true
	default:
		return 0, cand, false
	}
	if cr.Column == "*" {
		return 0, cand, false
	}
	depth, idx, found := sc.resolve(cr.Table, cr.Column)
	if !found || depth != 0 {
		return 0, cand, false
	}
	si := 0
	for i := 1; i < len(cc.scans); i++ {
		if idx >= cc.scans[i].offset {
			si = i
		}
	}
	if cc.scans[si].table == "" {
		return 0, cand, false
	}
	cand.col = idx - cc.scans[si].offset
	return si, cand, true
}

// mergeRange folds a range candidate into an earlier range candidate on
// the same column when every bound it carries lands in a free slot (two
// one-sided conjuncts become one two-bounded span); a partial merge would
// leave half the conjunct unchecked. Candidates that cannot merge stay
// separate: at most one becomes the
// scan's probe, and the others remain ordinary filters.
func mergeRange(cands []probeCand, cand *probeCand) bool {
	for i := range cands {
		prev := &cands[i]
		if prev.point || prev.col != cand.col {
			continue
		}
		if (cand.lo != nil && prev.lo != nil) || (cand.hi != nil && prev.hi != nil) {
			continue
		}
		if cand.lo != nil {
			prev.lo, prev.loIncl = cand.lo, cand.loIncl
		}
		if cand.hi != nil {
			prev.hi, prev.hiIncl = cand.hi, cand.hiIncl
		}
		prev.cis = append(prev.cis, cand.cis...)
		return true
	}
	return false
}

// chooseProbe picks the most selective eligible candidate for one scan,
// or none. Only base tables probe, and scans after the first only under
// all-inner joins: the first scan is never null-extended, so filtering it
// early is sound under any join mix, while pre-filtering a LEFT JOIN's
// right side would change its null extension. Two cost rules follow: a
// candidate whose estimate exceeds maxProbeFraction of the table stays a
// filter, and a candidate on a reused index build side is taken only when
// prefiltering wins the pairs-versus-build tradeoff.
// Ties break deterministically: point probes beat ranges, then earlier
// conjuncts win, so plans are stable for golden snapshots.
func (c *compiler) chooseProbe(cc *compiledCore, ts *tableScan, si int, cands []probeCand, allInner bool, frameEst float64) (*probeCand, float64) {
	if ts.table == "" || len(cands) == 0 {
		return nil, 0
	}
	if si > 0 && !allInner {
		return nil, 0
	}
	rows := float64(len(ts.rel.Rows))
	var best *probeCand
	bestEst := 0.0
	for i := range cands {
		cand := &cands[i]
		st, ok := c.ex.db.ColStats(ts.table, cand.col)
		if !ok {
			continue
		}
		est := st.RangeRows(cand.lo, cand.hi, cand.loIncl, cand.hiIncl)
		if cand.point {
			est = st.EqRows()
		}
		if est > maxProbeFraction*rows {
			continue
		}
		if best == nil || est < bestEst || (est == bestEst && cand.point && !best.point) {
			best, bestEst = cand, est
		}
	}
	if best == nil {
		return nil, 0
	}
	if si > 0 && len(cc.joins[si-1].eqNew) > 0 &&
		!c.prefilterWins(ts, cc.joins[si-1], frameEst, bestEst) {
		return nil, 0
	}
	return best, bestEst
}

// prefilterWins decides whether a probe on a keyed join build side pays:
// probing shrinks the build side to the filtered rows but forces the join
// to rebuild a hash table over them on every execution, while leaving the
// conjunct a residual keeps the prebuilt full-table index. Prefiltering
// wins when the per-execution build cost plus the filtered pair count
// undercuts probing the full index.
func (c *compiler) prefilterWins(ts *tableScan, jp *joinPlan, frameEst, filtered float64) bool {
	if frameEst < 0 {
		return false // unknown outer cardinality: keep the reused build side
	}
	n := float64(len(ts.rel.Rows))
	d := c.keyDistinct(ts.table, jp.eqNew)
	if d <= 0 || n == 0 {
		return false // no matchable keys: neither path does pair work
	}
	pairsFull := frameEst * n / d
	pairsFiltered := pairsFull * filtered / n
	return buildPenalty*filtered+pairsFiltered < pairsFull
}

// keyDistinct returns the exact number of distinct key tuples on a base
// table's join-key columns, read off the same index a reused build side
// would probe — so the estimate and the execution share one structure.
func (c *compiler) keyDistinct(table string, cols []int) float64 {
	if ix := c.ex.db.Index(table, cols...); ix != nil {
		return float64(ix.Distinct())
	}
	return 0
}

// joinEstimate estimates one join's candidate pairs and output rows given
// the estimated accumulated frame. Keyed joins divide by the build side's
// exact key-distinct count (uniform key frequencies); keyless joins visit
// the cross product; residual conjuncts keep the default one-sided
// selectivity each; LEFT JOIN emits at least one row per frame row.
func (c *compiler) joinEstimate(ts *tableScan, jp *joinPlan, frameEst float64) (est, pairs float64) {
	if frameEst < 0 || ts.est < 0 {
		return -1, -1
	}
	if len(jp.eqNew) > 0 {
		d := c.keyDistinct(ts.table, jp.eqNew)
		switch {
		case d <= 0:
			pairs = 0
		case ts.probe == nil && ts.rprobe == nil:
			// Reused build side: every frame row probes the full index.
			pairs = frameEst * float64(len(ts.rel.Rows)) / d
		default:
			// Prefiltered build side: only filtered rows can pair.
			pairs = frameEst * ts.est / d
		}
	} else {
		pairs = frameEst * ts.est
	}
	est = pairs
	for range jp.residual {
		est *= stats.OneSidedFraction
	}
	if jp.left && est < frameEst {
		est = frameEst
	}
	return est, pairs
}

// reorderCore considers replacing the join order of an aggregate-only,
// all-inner top-level core with a cheaper one. The eligibility class is
// deliberately narrow, because reordering changes the row order the rest
// of the pipeline consumes and must be invisible in the output:
//
//   - top-level core over ≥2 base tables, all joins inner, no derived
//     tables, no DISTINCT/GROUP BY/HAVING/ORDER BY/LIMIT/OFFSET;
//   - every projection item is a COUNT aggregate (plain, DISTINCT or
//     star) — COUNT is the one aggregate whose rendered result is a pure
//     function of the consumed row multiset. MIN/MAX are excluded
//     because two values can compare equal under sqltypes.Compare yet
//     render differently (INTEGER 2 vs REAL 2.0), so which survives
//     depends on visit order; SUM/AVG float accumulation is
//     order-sensitive outright;
//   - no subqueries anywhere, every column reference table-qualified,
//     and pairwise-distinct binding names — so folding ON conjuncts into
//     WHERE and permuting the FROM list provably re-resolves every
//     reference to the same column.
//
// When eligible, tables are ordered greedily (smallest estimated scan
// first, then the connected table minimizing estimated pairs); if that
// order's estimated total frame growth beats the original's, the
// permuted core — ON conditions folded into WHERE, where the equi-key
// pass re-extracts them — is lowered in its place. The estimates steer
// only the order; every order computes identical COUNTs.
func (c *compiler) reorderCore(cc *compiledCore, core *sqlast.SelectCore) *compiledCore {
	if core.From == nil || len(core.From.Joins) == 0 || core.From.Base.Sub != nil {
		return nil
	}
	for _, j := range core.From.Joins {
		if j.Type != sqlast.InnerJoin || j.Table.Sub != nil {
			return nil
		}
	}
	if core.Distinct || len(core.GroupBy) > 0 || core.Having != nil ||
		len(core.OrderBy) > 0 || core.Limit != nil || core.Offset != nil {
		return nil
	}
	for _, it := range core.Items {
		if it.Star || it.Expr == nil {
			return nil
		}
		if fc, ok := it.Expr.(*sqlast.FuncCall); !ok || fc.Name != "COUNT" {
			return nil
		}
	}
	exprs := make([]sqlast.Expr, 0, len(core.Items)+len(core.From.Joins)+1)
	for _, it := range core.Items {
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, core.Where)
	for _, j := range core.From.Joins {
		exprs = append(exprs, j.On)
	}
	for _, e := range exprs {
		if !reorderSafeExpr(e) {
			return nil
		}
	}
	refs := []sqlast.TableRef{core.From.Base}
	for _, j := range core.From.Joins {
		refs = append(refs, j.Table)
	}
	names := make(map[string]bool, len(refs))
	for _, r := range refs {
		name := strings.ToLower(r.Effective())
		if names[name] {
			return nil
		}
		names[name] = true
	}
	n := len(cc.scans)
	for _, ts := range cc.scans {
		if ts.est < 0 {
			return nil
		}
	}

	// The join graph, from the compiled plan's equi keys (ON- and
	// WHERE-derived alike): each edge names two scans and the key column
	// within each scan's own row.
	type edge struct{ a, ca, b, cb int }
	var edges []edge
	scanOf := func(off int) (int, int) {
		si := 0
		for i := 1; i < n; i++ {
			if off >= cc.scans[i].offset {
				si = i
			}
		}
		return si, off - cc.scans[si].offset
	}
	for ji, jp := range cc.joins {
		for k := range jp.eqNew {
			ai, ac := scanOf(jp.eqAcc[k])
			edges = append(edges, edge{a: ai, ca: ac, b: ji + 1, cb: jp.eqNew[k]})
		}
	}

	// stepCost estimates the pairs of joining scan si into a frame made of
	// the scans marked used: keyed by the distinct count over si's key
	// columns into the frame, cross product when unconnected.
	stepCost := func(used []bool, frame float64, si int) float64 {
		var cols []int
		for _, e := range edges {
			switch {
			case e.b == si && used[e.a]:
				cols = append(cols, e.cb)
			case e.a == si && used[e.b]:
				cols = append(cols, e.ca)
			}
		}
		cols = dedupCols(cols)
		if len(cols) == 0 {
			return frame * cc.scans[si].est
		}
		d := c.keyDistinct(cc.scans[si].table, cols)
		if d <= 0 {
			return 0
		}
		return frame * cc.scans[si].est / d
	}
	costOf := func(ord []int) float64 {
		used := make([]bool, n)
		used[ord[0]] = true
		frame := cc.scans[ord[0]].est
		total := 0.0
		for _, si := range ord[1:] {
			frame = stepCost(used, frame, si)
			used[si] = true
			total += frame
		}
		return total
	}

	// Greedy order: smallest estimated scan first, then always a
	// frame-connected scan (avoiding cross products) minimizing the step's
	// estimated pairs. Ties break toward the original position, keeping
	// plans deterministic.
	used := make([]bool, n)
	start := 0
	for i := 1; i < n; i++ {
		if cc.scans[i].est < cc.scans[start].est {
			start = i
		}
	}
	order := []int{start}
	used[start] = true
	frame := cc.scans[start].est
	for len(order) < n {
		bestI, bestCost, bestConn := -1, 0.0, false
		for si := 0; si < n; si++ {
			if used[si] {
				continue
			}
			conn := false
			for _, e := range edges {
				if (e.a == si && used[e.b]) || (e.b == si && used[e.a]) {
					conn = true
					break
				}
			}
			cost := stepCost(used, frame, si)
			if bestI < 0 || (conn && !bestConn) || (conn == bestConn && cost < bestCost) {
				bestI, bestCost, bestConn = si, cost, conn
			}
		}
		used[bestI] = true
		order = append(order, bestI)
		frame = bestCost
	}
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	if slices.Equal(order, identity) || costOf(order) >= costOf(identity) {
		return nil
	}

	core2 := &sqlast.SelectCore{
		Items: core.Items,
		From:  &sqlast.FromClause{Base: refs[order[0]]},
		Where: core.Where,
	}
	for _, si := range order[1:] {
		core2.From.Joins = append(core2.From.Joins, sqlast.Join{Type: sqlast.InnerJoin, Table: refs[si]})
	}
	for _, j := range core.From.Joins {
		core2.Where = sqlast.And(core2.Where, j.On)
	}
	re, err := c.lowerCore(core2, nil)
	if err != nil {
		// The permuted spelling failed to lower (it should not, given the
		// eligibility checks); the original plan is always valid.
		return nil
	}
	return re
}

// reorderSafeExpr reports whether an expression survives join reordering
// untouched: no subqueries (their correlation analysis is scope-order
// dependent) and every column reference table-qualified ("*" only as the
// COUNT(*) argument, which is table-agnostic).
func reorderSafeExpr(e sqlast.Expr) bool {
	safe := true
	sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
		switch n := x.(type) {
		case *sqlast.ColumnRef:
			if n.Column != "*" && n.Table == "" {
				safe = false
			}
		case *sqlast.InExpr:
			if n.Sub != nil {
				safe = false
			}
		case *sqlast.ExistsExpr, *sqlast.SubqueryExpr:
			safe = false
		}
		return safe
	})
	return safe
}

// dedupCols returns cols with duplicates removed, order preserved.
func dedupCols(cols []int) []int {
	out := make([]int, 0, len(cols))
	for _, c := range cols {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}
