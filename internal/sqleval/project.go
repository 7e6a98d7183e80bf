package sqleval

import (
	"encoding/binary"
	"sort"

	"cyclesql/internal/sqltypes"
)

// This file holds the consuming end of a core's push path. The base scan,
// or the core's last join, hands every frame row to the core's sink as a
// view it may only read during the call; the sink applies the post-join
// WHERE conjuncts and then projects the row or folds it into its group.
// No frame row is copied except each group's first, which grouped
// projection evaluates its non-aggregate expressions over.

// aggKind is one of the five SQL aggregates.
type aggKind uint8

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggKinds maps each aggregate name (sqlast.FuncCall.IsAggregate) to its
// kind.
var aggKinds = map[string]aggKind{"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax}

// aggSpec is one aggregate call of a grouped core, other than COUNT(*)
// (which reads the group's row count): its kind, DISTINCT flag and
// compiled argument.
type aggSpec struct {
	kind     aggKind
	distinct bool
	arg      compiledExpr
}

// aggState is one aggregate call's accumulator within one group. It folds
// the non-NULL (and, under DISTINCT, first-seen) argument values in the
// order rows arrive, so SUM and AVG add in row order and MIN and MAX keep
// the first of equal values. The argument's first error is kept and
// reported only when the aggregate is read, so a group HAVING drops never
// raises it; no later row is folded after it.
type aggState struct {
	n       int64          // values folded
	sum     float64        // SUM, AVG: running sum
	notInt  bool           // SUM: some value was not an INTEGER
	noFloat bool           // SUM, AVG: some value had no numeric reading
	best    sqltypes.Value // MIN, MAX: the extreme so far
	err     error
}

// fold adds one non-NULL argument value.
func (st *aggState) fold(kind aggKind, v sqltypes.Value) {
	switch kind {
	case aggSum, aggAvg:
		if !st.noFloat {
			f, ok := v.AsFloat()
			st.noFloat = !ok
			st.notInt = st.notInt || v.Kind() != sqltypes.KindInt
			st.sum += f
		}
	case aggMin:
		if st.n == 0 || sqltypes.Compare(v, st.best) < 0 {
			st.best = v
		}
	case aggMax:
		if st.n == 0 || sqltypes.Compare(v, st.best) > 0 {
			st.best = v
		}
	}
	st.n++
}

// value reads the aggregate: its argument's first error, or the folded
// result. SUM and AVG are NULL over no values or when any value has no
// numeric reading (text); MIN and MAX are NULL over no values.
func (st *aggState) value(kind aggKind) (sqltypes.Value, error) {
	if st.err != nil {
		return sqltypes.Value{}, st.err
	}
	if kind == aggCount {
		return sqltypes.NewInt(st.n), nil
	}
	if st.n == 0 || st.noFloat && (kind == aggSum || kind == aggAvg) {
		return sqltypes.Null(), nil
	}
	switch kind {
	case aggSum:
		if !st.notInt {
			return sqltypes.NewInt(int64(st.sum)), nil
		}
		return sqltypes.NewFloat(st.sum), nil
	case aggAvg:
		return sqltypes.NewFloat(st.sum / float64(st.n)), nil
	}
	return st.best, nil
}

// rowSink consumes frame rows. The row handed to push is a view the
// caller reuses after push returns.
type rowSink interface {
	push(row sqltypes.Row) error
}

// coreSink consumes one execution of a core's frame rows. An ungrouped
// core projects each row that passes the post-join filter into records; a
// grouped core folds it into its group, found by the binary encoding of
// its GROUP BY values. Groups keep first-seen order; group g's
// accumulators are states[g*len(cc.aggs):(g+1)*len(cc.aggs)].
type coreSink struct {
	cc *compiledCore
	rc rowCtx
	// kept counts the rows that passed the post-join filter.
	kept    int64
	records []sqltypes.Row
	arena   rowArena

	index  map[string]int
	groups []groupAcc
	states []aggState
	firsts sqltypes.Row
	view   groupView
	// seen holds the DISTINCT aggregates' folded values, keyed by slot,
	// group and value; key is the scratch buffer for it and group keys.
	seen map[string]struct{}
	key  []byte
}

// groupAcc is one group's row count (COUNT(*)) and the bounds of its
// first frame row, copied into coreSink.firsts.
type groupAcc struct {
	n      int64
	lo, hi int
}

func (s *coreSink) push(row sqltypes.Row) error {
	cc := s.cc
	s.rc.row = row
	if ok, err := truthyAll(cc.filters, &s.rc); err != nil || !ok {
		return err
	}
	s.kept++
	if !cc.grouped {
		rec, err := projectRecord(cc, &s.rc, &s.arena)
		if err != nil {
			return err
		}
		s.records = append(s.records, rec)
		return nil
	}
	g, err := s.group(row)
	if err != nil {
		return err
	}
	s.groups[g].n++
	states := s.states[g*len(cc.aggs):]
	for slot := range cc.aggs {
		a, st := &cc.aggs[slot], &states[slot]
		if st.err != nil {
			continue
		}
		v, err := a.arg(&s.rc)
		if err != nil {
			st.err = err
			continue
		}
		if v.IsNull() || a.distinct && s.dup(slot, g, v) {
			continue
		}
		st.fold(a.kind, v)
	}
	return nil
}

// group returns the index of the row's group, opening a new one (and
// copying the row as its first) on the first row with its key.
func (s *coreSink) group(row sqltypes.Row) (int, error) {
	cc := s.cc
	if len(cc.groupBy) == 0 {
		if len(s.groups) == 0 {
			s.open(row)
		}
		return 0, nil
	}
	s.key = s.key[:0]
	for _, fn := range cc.groupBy {
		v, err := fn(&s.rc)
		if err != nil {
			return 0, err
		}
		s.key = v.AppendKey(s.key)
	}
	if g, ok := s.index[string(s.key)]; ok {
		return g, nil
	}
	if s.index == nil {
		s.index = make(map[string]int)
	}
	g := len(s.groups)
	s.index[string(s.key)] = g
	s.open(row)
	return g, nil
}

func (s *coreSink) open(first sqltypes.Row) {
	lo := len(s.firsts)
	s.firsts = append(s.firsts, first...)
	s.groups = append(s.groups, groupAcc{lo: lo, hi: len(s.firsts)})
	s.states = append(s.states, make([]aggState, len(s.cc.aggs))...)
}

// dup reports whether group g's DISTINCT aggregate in slot already folded
// a value equal to v, recording v otherwise.
func (s *coreSink) dup(slot, g int, v sqltypes.Value) bool {
	s.key = binary.AppendUvarint(s.key[:0], uint64(slot))
	s.key = binary.AppendUvarint(s.key, uint64(g))
	s.key = v.AppendKey(s.key)
	if _, ok := s.seen[string(s.key)]; ok {
		return true
	}
	if s.seen == nil {
		s.seen = make(map[string]struct{})
	}
	s.seen[string(s.key)] = struct{}{}
	return false
}

// finish projects the groups (a grouped core) and applies DISTINCT, ORDER
// BY and LIMIT/OFFSET.
func (s *coreSink) finish() (*sqltypes.Relation, error) {
	cc := s.cc
	if !cc.grouped {
		return finalize(cc, s.records)
	}
	if len(s.groups) == 0 && len(cc.groupBy) == 0 {
		// Empty input with aggregates: a single all-NULL pseudo row.
		s.open(make(sqltypes.Row, cc.width))
	}
	cancel := cancelCheck{ctx: s.rc.qctx}
	rc := &s.rc
	rc.grp = &s.view
	records := make([]sqltypes.Row, 0, len(s.groups))
	k := len(cc.aggs)
	for g, acc := range s.groups {
		if err := cancel.poll(); err != nil {
			return nil, err
		}
		rc.row = s.firsts[acc.lo:acc.hi:acc.hi]
		s.view = groupView{n: acc.n, aggs: s.states[g*k : (g+1)*k]}
		if cc.having != nil {
			v, err := cc.having(rc)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		rec, err := projectRecord(cc, rc, &s.arena)
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
	return finalize(cc, records)
}

// projectRecord evaluates the projection items and then the ORDER BY
// keys for one row (or group) context into one row from the arena: the
// record's first len(cc.items) values are the output row, the rest its
// sort keys.
func projectRecord(cc *compiledCore, ctx *rowCtx, arena *rowArena) (sqltypes.Row, error) {
	n := len(cc.items)
	rec := arena.alloc(n + len(cc.orderKeys))
	for i, it := range cc.items {
		v, err := it.fn(ctx)
		if err != nil {
			return nil, err
		}
		rec[i] = v
	}
	for i, ok := range cc.orderKeys {
		if ok.projIdx >= 0 {
			rec[n+i] = rec[ok.projIdx]
			continue
		}
		v, err := ok.fn(ctx)
		if err != nil {
			return nil, err
		}
		rec[n+i] = v
	}
	return rec, nil
}

// finalize applies DISTINCT, ORDER BY, LIMIT/OFFSET and turns the records
// into the output relation, in place.
func finalize(cc *compiledCore, records []sqltypes.Row) (*sqltypes.Relation, error) {
	core := cc.core
	n := len(cc.items)
	if core.Distinct {
		seen := make(map[string]struct{}, len(records))
		kept := records[:0]
		var buf []byte
		for _, r := range records {
			buf = r[:n].AppendKey(buf[:0])
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
				c := sqltypes.Compare(records[i][n+k], records[j][n+k])
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
	out := sqltypes.NewRelation(cc.labels()...)
	out.Rows = records[start:end:end]
	if out.Rows == nil {
		out.Rows = []sqltypes.Row{}
	}
	if len(cc.orderKeys) > 0 {
		for i, r := range out.Rows {
			out.Rows[i] = r[:n:n]
		}
	}
	return out, nil
}
