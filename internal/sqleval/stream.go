package sqleval

import "cyclesql/internal/sqltypes"

// pushSorted is the base scan of a core whose ORDER BY was lowered to a
// sorted-index walk (compiledCore.stream, see lowerStream): it pushes the
// table's rows into the core's sink in the index's (value, scan-position)
// order, which is exactly how the stable sort in finalize orders them, so
// the core keeps no sort keys. Under LIMIT the walk ends when the sink
// stops it, holding OFFSET+LIMIT records, and finalize cuts the window as
// it does for every core. With a same-column range probe the walk covers
// only the probed span; NULL rows sit outside every span, matching the
// range conjunct's NULL rejection, while an unprobed walk includes them
// (NULL sorts first ascending, last descending, as Compare orders it). A
// streamed core has a single scan, so its whole WHERE runs in the sink.
func (ex *Executor) pushSorted(e execution, cc *compiledCore, s *coreSink) error {
	ts := cc.scans[0]
	rows := ex.db.Table(ts.table).Rows
	ix := ex.db.Sorted(ts.table, cc.stream.col)
	span := ix.Positions()
	if rp := ts.rprobe; rp != nil {
		span = ix.Range(rp.lo, rp.hi, rp.loIncl, rp.hiIncl)
	}
	if cc.stop >= 0 {
		// LIMIT bounds the output: size it once.
		n := min(cc.stop, len(span))
		s.records = e.slab.reserve(s.records, n)
		s.arena.reserve(n, len(cc.items))
	}
	var visited int64
	cancel := cancelCheck{ctx: e.qctx}
	err := walkSorted(rows, cc.stream, span, func(ri int32) error {
		visited++
		if err := cancel.poll(); err != nil {
			return err
		}
		return s.push(rows[ri])
	})
	if e.trace != nil {
		e.trace.addRows(ts.id, visited)
	}
	return err
}

// walkSorted visits a sorted span of rows in the stream's order until visit
// returns an error: ascending directly, descending by visiting equal-value
// runs back to front while keeping each run in ascending scan order (what
// a stable descending sort produces).
func walkSorted(rows []sqltypes.Row, sp *streamPlan, span []int32, visit func(int32) error) error {
	if !sp.desc {
		for _, ri := range span {
			if err := visit(ri); err != nil {
				return err
			}
		}
		return nil
	}
	val := func(ri int32) sqltypes.Value {
		row := rows[ri]
		if sp.col >= len(row) {
			return sqltypes.Null()
		}
		return row[sp.col]
	}
	for i := len(span) - 1; i >= 0; {
		j := i
		vi := val(span[i])
		for j > 0 && sqltypes.Compare(val(span[j-1]), vi) == 0 {
			j--
		}
		for k := j; k <= i; k++ {
			if err := visit(span[k]); err != nil {
				return err
			}
		}
		i = j - 1
	}
	return nil
}
