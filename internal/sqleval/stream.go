package sqleval

import "cyclesql/internal/sqltypes"

// runStream executes a core whose ORDER BY was lowered to a sorted-index
// walk (compiledCore.stream, see lowerStream). Rows are visited in the
// index's (value, scan-position) order — ascending directly, descending by
// emitting equal-value runs back to front while keeping each run in scan
// order, which is exactly how the stable sort in finalize orders ties —
// filtered, projected, and, under LIMIT, cut off as soon as OFFSET+LIMIT
// output rows exist. With a same-column range probe the walk covers only
// the probed span; NULL rows sit outside every span, matching the range
// conjunct's NULL rejection, while an unprobed walk includes them (NULL
// sorts first ascending, last descending, as Compare orders it).
func (ex *Executor) runStream(e execution, cc *compiledCore, outer *rowCtx) (*sqltypes.Relation, error) {
	sp := cc.stream
	ts := cc.scans[0]
	ix := ex.db.Sorted(ts.table, sp.col)
	var span []int32
	if ts.rprobe != nil {
		rp := ts.rprobe
		span = ix.Range(rp.lo, rp.hi, rp.loIncl, rp.hiIncl)
	} else {
		span = ix.Positions()
	}

	core := cc.core
	target := -1 // output rows (offset included) after which the walk stops
	if core.Limit != nil {
		target = int(*core.Limit)
		if core.Offset != nil {
			target += int(*core.Offset)
		}
		if target < 0 {
			target = 0
		}
	}

	out := sqltypes.NewRelation(cc.labels()...)
	cancel := cancelCheck{ctx: e.qctx}
	rc := &rowCtx{parent: outer, execution: e}
	var visited int64
	// visit filters and projects one row; it reports done when the output
	// reached the LIMIT target. The pre-check (not just the post-append
	// one) matters for LIMIT 0, which must emit nothing at all.
	visit := func(ri int32) (bool, error) {
		if target >= 0 && len(out.Rows) >= target {
			return true, nil
		}
		visited++
		if err := cancel.poll(); err != nil {
			return false, err
		}
		rc.row = ts.rel.Rows[ri]
		if ok, err := truthyAll(cc.baseFilters, rc); err != nil || !ok {
			return false, err
		}
		if ok, err := truthyAll(cc.filters, rc); err != nil || !ok {
			return false, err
		}
		proj := make(sqltypes.Row, len(cc.items))
		for i, it := range cc.items {
			v, err := it.fn(rc)
			if err != nil {
				return false, err
			}
			proj[i] = v
		}
		out.Append(proj)
		return target >= 0 && len(out.Rows) >= target, nil
	}

	if !sp.desc {
		for _, ri := range span {
			done, err := visit(ri)
			if err != nil {
				return nil, err
			}
			if done {
				break
			}
		}
	} else if err := ex.walkDesc(ts, sp.col, span, visit); err != nil {
		return nil, err
	}

	start := 0
	if core.Offset != nil {
		start = int(*core.Offset)
		if start > len(out.Rows) {
			start = len(out.Rows)
		}
	}
	out.Rows = out.Rows[start:]
	if ex.trace != nil {
		ex.trace.addRows(ts.id, visited)
		ex.trace.addRows(cc.id, int64(len(out.Rows)))
	}
	return out, nil
}

// walkDesc visits a sorted span in descending value order while keeping
// equal-value runs in ascending scan order (what a stable descending sort
// produces).
func (ex *Executor) walkDesc(ts *tableScan, col int, span []int32, visit func(int32) (bool, error)) error {
	val := func(ri int32) sqltypes.Value {
		row := ts.rel.Rows[ri]
		if col >= len(row) {
			return sqltypes.Null()
		}
		return row[col]
	}
	for i := len(span) - 1; i >= 0; {
		j := i
		vi := val(span[i])
		for j > 0 && sqltypes.Compare(val(span[j-1]), vi) == 0 {
			j--
		}
		for k := j; k <= i; k++ {
			done, err := visit(span[k])
			if err != nil {
				return err
			}
			if done {
				return nil
			}
		}
		i = j - 1
	}
	return nil
}
