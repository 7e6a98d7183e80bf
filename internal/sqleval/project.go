package sqleval

import (
	"sort"

	"cyclesql/internal/sqltypes"
)

// record pairs a projected output row with its ORDER BY sort keys.
type record struct {
	proj sqltypes.Row
	keys sqltypes.Row
}

func (ex *Executor) projectPlain(e execution, cc *compiledCore, rows []sqltypes.Row, outer *rowCtx) (*sqltypes.Relation, error) {
	records := make([]record, 0, len(rows))
	cancel := cancelCheck{ctx: e.qctx}
	rc := &rowCtx{parent: outer, execution: e}
	for _, row := range rows {
		if err := cancel.poll(); err != nil {
			return nil, err
		}
		rc.row = row
		rec, err := projectRecord(cc, rc)
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
	return finalize(cc, records)
}

func (ex *Executor) projectGrouped(e execution, cc *compiledCore, rows []sqltypes.Row, outer *rowCtx) (*sqltypes.Relation, error) {
	cancel := cancelCheck{ctx: e.qctx}
	// Partition rows into groups, keyed by the binary encoding of the
	// GROUP BY values; insertion order is preserved.
	var groups []groupRows
	if len(cc.groupBy) == 0 {
		groups = []groupRows{{rows: rows}}
	} else {
		idx := make(map[string]int)
		rc := &rowCtx{parent: outer, execution: e}
		var buf []byte
		for _, row := range rows {
			if err := cancel.poll(); err != nil {
				return nil, err
			}
			rc.row = row
			buf = buf[:0]
			for _, fn := range cc.groupBy {
				v, err := fn(rc)
				if err != nil {
					return nil, err
				}
				buf = v.AppendKey(buf)
			}
			gi, ok := idx[string(buf)]
			if !ok {
				gi = len(groups)
				idx[string(buf)] = gi
				groups = append(groups, groupRows{})
			}
			groups[gi].rows = append(groups[gi].rows, row)
		}
	}
	records := make([]record, 0, len(groups))
	rc := &rowCtx{parent: outer, execution: e}
	for gi := range groups {
		if err := cancel.poll(); err != nil {
			return nil, err
		}
		g := &groups[gi]
		if len(g.rows) == 0 {
			// Empty input with aggregates: a single all-NULL pseudo row.
			rc.row = make(sqltypes.Row, cc.width)
		} else {
			rc.row = g.rows[0]
		}
		rc.grp = g
		if cc.having != nil {
			v, err := cc.having(rc)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		rec, err := projectRecord(cc, rc)
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
	return finalize(cc, records)
}

// projectRecord evaluates the projection items and ORDER BY keys for one
// row (or group) context.
func projectRecord(cc *compiledCore, ctx *rowCtx) (record, error) {
	proj := make(sqltypes.Row, len(cc.items))
	for i, it := range cc.items {
		v, err := it.fn(ctx)
		if err != nil {
			return record{}, err
		}
		proj[i] = v
	}
	var keys sqltypes.Row
	if len(cc.orderKeys) > 0 {
		keys = make(sqltypes.Row, len(cc.orderKeys))
		for i, ok := range cc.orderKeys {
			if ok.projIdx >= 0 {
				keys[i] = proj[ok.projIdx]
				continue
			}
			v, err := ok.fn(ctx)
			if err != nil {
				return record{}, err
			}
			keys[i] = v
		}
	}
	return record{proj: proj, keys: keys}, nil
}

// finalize applies DISTINCT, ORDER BY, LIMIT/OFFSET and materializes the
// output relation.
func finalize(cc *compiledCore, records []record) (*sqltypes.Relation, error) {
	core := cc.core
	if core.Distinct {
		seen := make(map[string]struct{}, len(records))
		kept := records[:0:0]
		var buf []byte
		for _, r := range records {
			buf = r.proj.AppendKey(buf[:0])
			if _, dup := seen[string(buf)]; !dup {
				seen[string(buf)] = struct{}{}
				kept = append(kept, r)
			}
		}
		records = kept
	}
	if len(cc.orderKeys) > 0 {
		sort.SliceStable(records, func(i, j int) bool {
			for k, o := range cc.orderKeys {
				c := sqltypes.Compare(records[i].keys[k], records[j].keys[k])
				if c == 0 {
					continue
				}
				if o.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	start, end := 0, len(records)
	if core.Offset != nil {
		start = int(*core.Offset)
		if start > end {
			start = end
		}
	}
	if core.Limit != nil {
		if lim := start + int(*core.Limit); lim < end {
			end = lim
		}
	}
	records = records[start:end]
	out := sqltypes.NewRelation(cc.labels()...)
	out.Rows = make([]sqltypes.Row, len(records))
	for i, r := range records {
		out.Rows[i] = r.proj
	}
	return out, nil
}
