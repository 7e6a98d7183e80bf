package sqleval

import (
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/stats"
)

// Cost-based access-path selection, the lowering every production
// executor runs. Each choice is an estimate derived from internal/stats:
// each scan probes its most selective candidate, a probe whose estimated
// span covers most of the table is skipped, and a reused build side is
// prefiltered when fewer candidate pairs outweigh the per-execution hash
// build. Joins run in FROM order. Every choice is among result-identical
// lowerings — an unclaimed conjunct simply stays a filter, a prefiltered
// build side routes through the generic hash join — so a misestimate
// costs time, never correctness. TestPlanParity pins exactly that.

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
		if ts.table != "" {
			ts.est = float64(c.ex.db.NumRows(ts.table))
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
	rows := float64(c.ex.db.NumRows(ts.table))
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
	n := float64(c.ex.db.NumRows(ts.table))
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
			pairs = frameEst * float64(c.ex.db.NumRows(ts.table)) / d
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
