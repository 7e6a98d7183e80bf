package sqleval

import (
	"encoding/binary"
	"math"
	"sort"

	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// This file holds the consuming end of a core's push path. The base scan,
// or the core's join pipeline, hands every frame row to the core's sink as
// a view it may only read during the call; the sink applies the post-join
// WHERE conjuncts and then projects the row or folds it into its group.
// No frame row is copied except each group's first, which grouped
// projection evaluates its non-aggregate expressions over. Under LIMIT the
// sink of an ungrouped, non-DISTINCT, unsorted core stops the push path
// once it holds every record the window keeps.

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

// coreSink consumes one execution of a core's frame rows. An ungrouped
// core projects each row that passes the post-join filter into records; a
// grouped core folds it into its group, found by the binary encoding of
// its GROUP BY values. Groups keep first-seen order; group g's
// accumulators are states[g*len(cc.aggs):(g+1)*len(cc.aggs)]. The row
// handed to push is a view the caller reuses after push returns. Once the
// core finishes, everything but records and the arena's rows is scratch:
// a slab keeps the sink, and with it the capacity of its tables and slices,
// for the next core it runs.
type coreSink struct {
	cc *compiledCore
	rc rowCtx
	// kept counts the rows that passed the post-join filter.
	kept    int64
	records []sqltypes.Row
	arena   rowArena

	index  storage.Groups
	groups []groupAcc
	states []aggState
	firsts sqltypes.Row
	view   groupView
	// seen holds the DISTINCT aggregates' folded values, keyed by slot,
	// group and value, and then finalize's DISTINCT rows; key is the
	// scratch buffer for it, group keys and join probe keys.
	seen storage.Groups
	key  []byte
	// stages and frame are the join pipeline's (newPipeline).
	stages []joinStage
	frame  sqltypes.Row
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
		if len(s.records) == cc.stop {
			return errLimit
		}
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
	g, added := s.index.Add(s.key)
	if added {
		s.open(row)
	}
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
	_, added := s.seen.Add(s.key)
	return !added
}

// finish projects the groups (a grouped core) and applies DISTINCT, ORDER
// BY and LIMIT/OFFSET.
func (s *coreSink) finish() (*sqltypes.Relation, error) {
	cc := s.cc
	if !cc.grouped {
		return s.finalize(s.records)
	}
	if len(s.groups) == 0 && len(cc.groupBy) == 0 {
		// Empty input with aggregates: a single all-NULL pseudo row.
		s.open(make(sqltypes.Row, cc.width))
	}
	cancel := cancelCheck{ctx: s.rc.qctx}
	rc := &s.rc
	rc.grp = &s.view
	records := s.rc.slab.rows(len(s.groups))
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
	return s.finalize(records)
}

// projectRecord evaluates the projection items and then the ORDER BY
// keys for one row (or group) context into one row from the arena: the
// record's first len(cc.items) values are the output row, the rest its
// sort keys. A key that reuses a projected column leaves its slot unset;
// sortRecords reads the column.
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
// into the output relation, in place; the records buffer goes to the slab
// as part of the result. DISTINCT reuses the sink's key set and buffer,
// whose aggregate keys are dead by now.
func (s *coreSink) finalize(records []sqltypes.Row) (*sqltypes.Relation, error) {
	cc := s.cc
	core := cc.core
	n := len(cc.items)
	s.rc.slab.keep(records)
	if core.Distinct {
		s.seen.Reset()
		kept := records[:0]
		for _, r := range records {
			s.key = r[:n].AppendKey(s.key[:0])
			if _, added := s.seen.Add(s.key); added {
				kept = append(kept, r)
			}
		}
		records = kept
	}
	sortRecords(records, cc.orderKeys, n)
	start, end := window(core.Offset, core.Limit, len(records))
	out := s.rc.slab.relation(cc.labels())
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

// sortRecords stably sorts records by the ORDER BY keys, each ascending
// or descending under Compare. Key k reads the projected column projIdx,
// or else the record's sort-key slot n+k (projectRecord).
func sortRecords(records []sqltypes.Row, keys []orderKey, n int) {
	if len(keys) == 0 {
		return
	}
	sort.SliceStable(records, func(i, j int) bool {
		for k, o := range keys {
			col := n + k
			if o.projIdx >= 0 {
				col = o.projIdx
			}
			c := sqltypes.Compare(records[i][col], records[j][col])
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

// window returns the span [start, end) of n ordered records that OFFSET
// and LIMIT keep, each bound clamped to the records.
func window(offset, limit *int64, n int) (start, end int) {
	if offset != nil {
		start = int(min(max(*offset, 0), int64(n)))
	}
	end = n
	if limit != nil {
		end = start + int(min(max(*limit, 0), int64(n-start)))
	}
	return start, end
}

// stopAt returns the number of records after which a core's push path
// stops (compiledCore.stop): OFFSET+LIMIT for an ungrouped, non-DISTINCT
// core without sort keys, whose first records in push order are the ones
// its window keeps; -1, never, for every other core.
func stopAt(cc *compiledCore) int {
	core := cc.core
	if core.Limit == nil || cc.grouped || core.Distinct || len(cc.orderKeys) > 0 {
		return -1
	}
	var off int64
	if core.Offset != nil {
		off = max(*core.Offset, 0)
	}
	return int(min(max(*core.Limit, 0), math.MaxInt64-off) + off)
}
