// Package sqleval executes sqlast statements against a storage.Database.
// It implements the full Spider dialect: equi-joins (inner and left),
// tri-state WHERE logic, grouping with HAVING, the five SQL aggregates
// with DISTINCT, ordering, limits, set operations, and subqueries (IN,
// EXISTS, scalar), correlated or not.
//
// The executor is a two-phase compile-and-execute engine. The compile
// phase (compile.go) runs once per statement: it resolves every column
// reference to a fixed frame coordinate, expands stars, detects equi-join
// keys in ON and WHERE, lowers col = literal conjuncts into hash-index
// point probes and comparison/BETWEEN conjuncts into sorted-index range
// probes, recognizes ORDER BY col [LIMIT k] orderings that can stream off
// a sorted index, pushes the remaining filters below inner joins, and
// lowers every expression into a closure. The execute phase runs every
// core through one push path: the base scan, directly or through the
// core's join pipeline, hands each frame row as a scratch view to the
// core's sink (project.go), which applies the post-join WHERE and then
// projects the row or folds it into its group's aggregate accumulators, so
// no joined row is copied except each group's first. Base scans read point
// lookups and range spans straight off lazily built storage indexes; the
// scan of a core whose ordering was lowered to a sorted-index walk
// (stream.go) delivers rows in index order, so the core needs no sort.
// The pipeline fetches every join's right side and builds its bucket
// source first, then streams each base row through one stage per join:
// equi-joins probe a bucket per left row — a whole base table's hash index
// over the key-column tuple, reused across executions, or else one of the
// same type rebuilt over the right side per execution — and a join without
// equi keys runs a nested loop. All stages share one frame row, each
// writing only its own table's columns, so no intermediate join result is
// ever materialized. Under LIMIT, an ungrouped core without DISTINCT or sort
// keys stops the push path once its sink holds OFFSET+LIMIT records, so
// rows past the limit are never evaluated. A compound's ORDER BY and
// LIMIT apply to the combined result. The pre-bound closures
// evaluate directly against flat rows — no per-row environment
// allocation, no name lookups — and every dedup and grouping structure
// keys rows by compact binary bag keys (sqltypes.Row.AppendKey), every
// join and probe by Compare-consistent ones (AppendCompareKeyCols). EXPLAIN
// (explainplan.go) runs one execution of the plan the executor runs, with
// a trace that counts actual rows per plan node. The compile phase
// also classifies every subquery expression: an uncorrelated one (no
// column reference reaches an enclosing query) runs at most once per
// execution, on first use, and later rows read its memoised result — IN
// members from a hash set (subquery.go); a correlated one re-runs once per
// outer row. Compiled plans are cached per executor by canonical SQL
// (sqlnorm.AppendCacheKey), so re-executing a statement — or a textually
// identical candidate arriving as a distinct AST from another beam —
// skips straight to execution. A caller that re-runs one statement holds
// the Plan that Prepare returns and skips the cache lookup too. A cached
// program keeps the AST it was compiled from, so statements must not be
// mutated once executed.
//
// An Executor is safe for concurrent Run, ExecContext and PlanTree calls:
// execution state (the subquery-depth guard, the subquery memo, the
// EXPLAIN trace, row contexts, the slab and its scratch buffers) belongs
// to the call, never to the executor or a cached plan; the plan cache is
// guarded by a read-mostly lock, and the storage layer guards its lazy
// index builds. The database contents must not be mutated while
// executions are in flight (the store itself documents the same
// reader/writer contract).
//
// Cancellation: Run and ExecContext abort a running query when its
// context is cancelled. The context is checked on entry to every program
// (so a statement — or a correlated subquery evaluated per outer row —
// never starts against a dead context) and then polled every
// cancelCheckInterval rows inside the scan-filter, join, and projection
// inner loops, so even a single pathological cross join returns within a
// bounded number of row visits of the cancellation. A memoised subquery
// keeps the per-row entry check, so it observes cancellation at the same
// outer row a re-run would. A nil context executes as
// context.Background() and never aborts.
package sqleval

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// Executor evaluates SELECT statements against one database.
type Executor struct {
	db *storage.Database
	// mu guards the plan map; compiled plans themselves are immutable
	// after compilation, so concurrent executions share them freely.
	mu sync.RWMutex
	// plans caches compiled programs by canonical SQL
	// (sqlnorm.AppendCacheKey), so textually identical statements
	// arriving as distinct ASTs share one compiled plan. Sharing stays
	// sound under cost-based planning because the key canonicalizes the
	// statement WITH its literals:
	// two statements can only share a key by having identical literals,
	// hence identical estimated selectivities — a plan chosen for one is
	// the plan that would be chosen for the other.
	// Plans are costed against the statistics visible at first compile and
	// deliberately not re-costed as the database changes, so a cached
	// plan's estimates may go stale; its results may not: a plan names its
	// tables and reads their current rows and indexes on every run.
	// Callers that want fresh estimates after bulk loads use a fresh
	// executor (the serving layer already creates one per snapshot).
	plans map[string]*program

	// mode restricts the access paths the compiler may lower to; it is
	// fixed at construction, so every cached plan was compiled under it.
	mode planMode
}

// New returns an executor over db.
func New(db *storage.Database) *Executor { return &Executor{db: db} }

// planMode selects which access paths the compiler lowers to. Only
// costPlan runs in production; the two restricted modes are the reference
// legs the parity tests hold it to.
type planMode uint8

const (
	// costPlan chooses probes, build sides and streamed orderings by
	// estimated selectivity (cost.go).
	costPlan planMode = iota
	// indexFree keeps hash joins and filter pushdown but reads no index or
	// statistic, so every access path scans Relation.Rows.
	indexFree
	// nestedLoop also drops equi-join keys and filter pushdown, so every
	// join runs the nested-loop fallback, and classifies every subquery as
	// correlated, so it re-runs once per outer row: the per-row oracle the
	// subquery memo is checked against.
	nestedLoop
)

// maxSubqueryDepth bounds nesting; benchmark queries nest at most 3 deep.
const maxSubqueryDepth = 16

// maxCachedPlans bounds the per-executor plan map; long-lived executors
// (the CycleSQL pipeline keeps one per database) reset it on overflow.
const maxCachedPlans = 512

// cancelCheckInterval is how many rows an inner loop visits between
// context polls (power of two so the check compiles to a mask). 1024 rows
// keeps the steady-state cost of cancellation support to one counter
// increment per row while bounding the abort latency of the tightest
// loops to microseconds.
const cancelCheckInterval = 1024

// cancelCheck amortizes ctx.Err polling over inner-loop iterations; the
// zero count means the first poll happens a full interval in, so short
// queries never pay a context read at all.
type cancelCheck struct {
	ctx context.Context
	n   uint
}

// poll returns the context's error every cancelCheckInterval calls, nil
// otherwise.
func (cc *cancelCheck) poll() error {
	cc.n++
	if cc.n&(cancelCheckInterval-1) != 0 {
		return nil
	}
	return cc.ctx.Err()
}

// ExecContext compiles the statement (or reuses its cached plan) and
// returns its result relation. The query aborts with the context's error
// as soon as a cancellation check observes ctx done —
// immediately for a context cancelled before the call, within
// cancelCheckInterval row visits for one cancelled mid-query. The
// CycleSQL loop, through Run, abandons in-flight speculative candidates
// this way. The execution runs on a fresh slab that never enters the
// pool, so the relation is the caller's and is never recycled (a caller
// that drops its result uses Run and Release instead); its Columns slice
// is shared with the cached plan and must not be written.
func (ex *Executor) ExecContext(ctx context.Context, stmt *sqlast.SelectStmt) (*sqltypes.Relation, error) {
	prog, err := ex.compiled(stmt)
	if err != nil {
		return nil, err
	}
	return ex.exec(ctx, prog, newSlab())
}

// exec runs prog with its buffers taken from sl.
func (ex *Executor) exec(ctx context.Context, prog *program, sl *slab) (*sqltypes.Relation, error) {
	if ctx == nil {
		//vetcycle:allow ctxflow -- nil-ctx guard for legacy callers; nothing upstream to thread
		ctx = context.Background()
	}
	return ex.runProgram(newExecution(ctx, prog, sl), prog, nil)
}

// execution is the state one execution of a statement threads, by value,
// through every program, core and row context it runs: the caller's
// context, the subquery memo, the subquery nesting depth of the program
// being run (1 for the statement itself), the trace that receives actual
// row counts keyed by plan-node id, and the slab its buffers come from
// (slab.go). Only PlanTree's execution carries a trace; every other one
// pays a nil check per recording site.
type execution struct {
	qctx  context.Context
	memo  []subMemo
	depth int
	trace *execTrace
	slab  *slab
}

// newExecution starts one execution of a top-level program. The memo has
// one slot per uncorrelated subquery and lives for this execution only, so
// a cached plan never holds results and concurrent executions share
// nothing; a statement without uncorrelated subqueries allocates none.
func newExecution(ctx context.Context, p *program, sl *slab) execution {
	e := execution{qctx: ctx, depth: 1, slab: sl}
	if p.slots > 0 {
		e.memo = sl.memoSlots(p.slots)
	}
	return e
}

// nested is the execution one subquery level down.
func (e execution) nested() execution {
	e.depth++
	return e
}

// keyBufs recycles the buffer compiled renders a statement's cache key
// into.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// compiled returns stmt's program from the plan cache, compiling and
// storing it on a miss. A hit looks the key up by its bytes and
// allocates nothing; only a stored plan pays for its key string.
func (ex *Executor) compiled(stmt *sqlast.SelectStmt) (*program, error) {
	bp := keyBufs.Get().(*[]byte)
	*bp = sqlnorm.AppendCacheKey((*bp)[:0], stmt)
	ex.mu.RLock()
	p, ok := ex.plans[string(*bp)]
	ex.mu.RUnlock()
	if ok {
		keyBufs.Put(bp)
		return p, nil
	}
	key := string(*bp)
	keyBufs.Put(bp)
	// Compile outside the lock; concurrent compilations of the same
	// statement are idempotent (programs are interchangeable), the last
	// store wins.
	c := &compiler{ex: ex}
	p, err := c.compileStmt(stmt, nil)
	if err != nil {
		return nil, err
	}
	p.nodes, p.subs, p.slots = c.nodes, c.subs, c.slots
	ex.mu.Lock()
	if ex.plans == nil {
		ex.plans = make(map[string]*program)
	} else if len(ex.plans) >= maxCachedPlans {
		clear(ex.plans)
	}
	ex.plans[key] = p
	ex.mu.Unlock()
	return p, nil
}

// runProgram executes a compiled program. The execution threads through
// the call chain — and into row contexts, for subquery closures — instead
// of living on the executor, so concurrent executions cannot observe each
// other. The entry check makes an already-cancelled context return before
// any rows are visited, and gives correlated subqueries (re-entered here
// once per outer row) a natural per-row cancellation point.
func (ex *Executor) runProgram(e execution, p *program, outer *rowCtx) (*sqltypes.Relation, error) {
	if err := e.qctx.Err(); err != nil {
		return nil, err
	}
	if e.depth > maxSubqueryDepth {
		return nil, fmt.Errorf("sqleval: subquery nesting exceeds %d", maxSubqueryDepth)
	}
	result, err := ex.runCore(e, p.cores[0], outer)
	if err != nil {
		return nil, err
	}
	for i, op := range p.ops {
		rhs, err := ex.runCore(e, p.cores[i+1], outer)
		if err != nil {
			return nil, err
		}
		result, err = combine(e.slab, result, rhs, op)
		if err != nil {
			return nil, err
		}
	}
	if len(p.ops) > 0 {
		orderCompound(result, p)
	}
	return result, nil
}

// orderCompound applies a compound's ORDER BY and LIMIT/OFFSET to its
// combined result, in place: a stable sort on the resolved output
// columns, then the window.
func orderCompound(rel *sqltypes.Relation, p *program) {
	rows := rel.Rows
	sortRecords(rows, p.order, 0)
	start, end := window(p.offset, p.limit, len(rows))
	rel.Rows = rows[start:end:end]
}

// combine applies one set operation. The combined rows come from sl and
// belong to the result; the operands' rows stay where they are.
func combine(sl *slab, l, r *sqltypes.Relation, op sqlast.CompoundOp) (*sqltypes.Relation, error) {
	if l.NumCols() != r.NumCols() {
		return nil, fmt.Errorf("sqleval: %s operands have %d vs %d columns", op, l.NumCols(), r.NumCols())
	}
	out := sl.relation(l.Columns)
	out.Rows = sl.rows(0)
	inR, seen := &sl.sets[0], &sl.sets[1]
	inR.Reset()
	seen.Reset()
	var buf []byte
	switch op {
	case sqlast.UnionAll:
		out.Rows = append(append(out.Rows, l.Rows...), r.Rows...)
	case sqlast.Union:
		for _, rows := range [][]sqltypes.Row{l.Rows, r.Rows} {
			for _, row := range rows {
				buf = row.AppendKey(buf[:0])
				if _, added := seen.Add(buf); added {
					out.Append(row)
				}
			}
		}
	case sqlast.Intersect, sqlast.Except:
		// Keep the distinct left rows found (INTERSECT) or not found
		// (EXCEPT) on the right.
		for _, row := range r.Rows {
			buf = row.AppendKey(buf[:0])
			inR.Add(buf)
		}
		keep := op == sqlast.Intersect
		for _, row := range l.Rows {
			buf = row.AppendKey(buf[:0])
			if inR.Find(buf) >= 0 != keep {
				continue
			}
			if _, added := seen.Add(buf); added {
				out.Append(row)
			}
		}
	default:
		return nil, fmt.Errorf("sqleval: unknown set operation %q", op)
	}
	sl.keep(out.Rows)
	return out, nil
}

// errLimit is what a core's sink returns once it holds the OFFSET+LIMIT
// records its window keeps (compiledCore.stop): it unwinds the push path
// without visiting another row, and runCore reads it as success.
var errLimit = errors.New("sqleval: limit reached")

// runCore executes one SELECT core through the push path: the frame rows
// flow from the base scan, through the join pipeline, straight into the
// core's sink. A core whose LIMIT keeps no record runs nothing.
func (ex *Executor) runCore(e execution, cc *compiledCore, outer *rowCtx) (*sqltypes.Relation, error) {
	s := e.slab.sink(e, cc, outer)
	var err error
	if cc.stop != 0 {
		if err = ex.pushFrom(e, cc, outer, s); err == errLimit {
			err = nil
		}
	}
	var result *sqltypes.Relation
	if err == nil {
		result, err = s.finish()
	}
	if err == nil && e.trace != nil {
		if len(cc.filters) > 0 {
			e.trace.addRows(cc.filterID, s.kept)
		}
		e.trace.addRows(cc.id, int64(len(result.Rows)))
	}
	e.slab.putSink(s)
	return result, err
}

// truthyAll reports whether every conjunct evaluates truthy (tri-state AND
// over a pre-split conjunct list, short-circuiting on the first non-truthy
// value, exactly like the legacy single-expression Kleene AND).
func truthyAll(filters []compiledExpr, ctx *rowCtx) (bool, error) {
	for _, fn := range filters {
		v, err := fn(ctx)
		if err != nil {
			return false, err
		}
		if !v.Truthy() {
			return false, nil
		}
	}
	return true, nil
}

// pushFrom produces the frame rows and hands each to the core's sink: the
// sorted-index walk of a streamed core (pushSorted), the base scan of a
// single-table core, or the base scan streamed through the core's join
// pipeline.
func (ex *Executor) pushFrom(e execution, cc *compiledCore, outer *rowCtx, s *coreSink) error {
	switch {
	case len(cc.scans) == 0:
		// SELECT without FROM evaluates items once over an empty row.
		return s.push(sqltypes.Row{})
	case cc.stream != nil:
		return ex.pushSorted(e, cc, s)
	}
	rows, err := cc.scans[0].rows(ex, e, outer)
	if err != nil {
		return err
	}
	// visited counts the base rows the push path reached, which is fewer
	// than the scan's rows when LIMIT stops it.
	visited := 0
	if len(cc.joins) == 0 {
		cancel := cancelCheck{ctx: e.qctx}
		for _, row := range rows {
			visited++
			if err = cancel.poll(); err != nil {
				break
			}
			if err = s.push(row); err != nil {
				break
			}
		}
	} else {
		p, perr := ex.newPipeline(e, cc, outer, s)
		if perr != nil {
			return perr
		}
		visited, err = p.run(rows)
		if e.trace != nil {
			for i := range p.stages {
				st := &p.stages[i]
				e.trace.addRows(st.jp.id, st.emitted)
				e.trace.addPairs(st.jp.id, st.pairs)
			}
		}
	}
	if e.trace != nil {
		e.trace.addRows(cc.scans[0].id, int64(visited))
	}
	return err
}

// pipeline streams a multi-table core's base rows through its joins into
// the sink. Every stage writes into one shared frame row: stage i fills
// only columns [accW, outW) with its right row (or NULLs), so a left row
// is never copied and the row the sink sees is the frame itself. Output
// order is left-major with right rows in scan order, as the joins would
// produce it one at a time. The frame and the stages, with their build
// sides, are the sink's scratch, reused by the next core its slab runs.
type pipeline struct {
	stages []joinStage
	frame  sqltypes.Row
	// base filters run on the frame once the base row is in it; every
	// conjunct and residual evaluates in the sink's row context, which
	// reads the same frame.
	base   []compiledExpr
	rc     *rowCtx
	sink   *coreSink
	cancel cancelCheck
}

// joinStage is one join of a pipeline. With equi keys it probes, with each
// left prefix of the frame, a bucket of right-row positions: from the
// right table's hash index over the key-column tuple when the right side
// is a whole base table (built at most once per database instead of
// hashing the table on every execution), otherwise from own, rebuilt
// over the right side per execution. Without keys it visits every right
// row (a nested loop). A NULL in any key column never equi-matches:
// AppendCompareKeyCols reports it, and its Compare-consistent encoding
// (shared with the secondary indexes) matches the = operator exactly,
// keeping both bucket sources bit-identical to the nested loop. A LEFT
// JOIN null-extends an unmatched left row inline, matching rows by index —
// never by value — so duplicate-valued rows cannot collide. pairs and
// emitted are the stage's EXPLAIN counts.
type joinStage struct {
	jp             *joinPlan
	right          []sqltypes.Row
	accW, outW     int
	ix             *storage.HashIndex
	own            storage.HashIndex
	pairs, emitted int64
}

// newPipeline fetches each join's right side in join order and builds its
// hash index, or looks up the reused index, before any base row streams.
// One amortized cancellation counter covers every base row and candidate
// pair, so even an n×m nested loop observes cancellation within
// cancelCheckInterval visits.
func (ex *Executor) newPipeline(e execution, cc *compiledCore, outer *rowCtx, s *coreSink) (pipeline, error) {
	if cap(s.stages) < len(cc.joins) {
		s.stages = make([]joinStage, len(cc.joins))
	}
	if cap(s.frame) < cc.width {
		s.frame = make(sqltypes.Row, cc.width)
	}
	p := pipeline{stages: s.stages[:len(cc.joins)], frame: s.frame[:cc.width],
		base: cc.baseFilters, rc: &s.rc, sink: s, cancel: cancelCheck{ctx: e.qctx}}
	p.rc.row = p.frame
	accW := cc.scans[0].width
	for i, jp := range cc.joins {
		next := cc.scans[i+1]
		right, err := next.rows(ex, e, outer)
		if err != nil {
			return pipeline{}, err
		}
		if e.trace != nil {
			e.trace.addRows(next.id, int64(len(right)))
		}
		st := &p.stages[i]
		*st = joinStage{jp: jp, right: right, accW: accW, outW: accW + next.width, own: st.own}
		accW = st.outW
		switch {
		case len(jp.eqAcc) == 0:
		case jp.reuse:
			st.ix = ex.db.Index(next.table, jp.eqNew...)
		default:
			st.own.Reserve(len(right))
			st.own.Build(right, jp.eqNew)
			st.ix = &st.own
		}
	}
	return p, nil
}

// run streams the base rows through the stages, passing each that the
// pushed-down base filters keep, and returns how many it visited.
func (p *pipeline) run(rows []sqltypes.Row) (int, error) {
	w := p.stages[0].accW
	for i, row := range rows {
		if err := p.cancel.poll(); err != nil {
			return i + 1, err
		}
		copy(p.frame[:w], row)
		ok, err := truthyAll(p.base, p.rc)
		if err == nil && ok {
			err = p.join(0)
		}
		if err != nil {
			return i + 1, err
		}
	}
	return len(rows), nil
}

// join extends the frame, whose columns before stage i's accW hold the
// current left row, with each matching right row of stage i and hands
// every extension to the next stage; past the last stage, to the sink.
func (p *pipeline) join(i int) error {
	if i == len(p.stages) {
		return p.sink.push(p.frame)
	}
	st := &p.stages[i]
	matched := false
	if len(st.jp.eqAcc) == 0 {
		for _, rrow := range st.right {
			ok, err := p.pair(i, rrow)
			if err != nil {
				return err
			}
			matched = matched || ok
		}
	} else if key, ok := p.frame.AppendCompareKeyCols(p.sink.key[:0], st.jp.eqAcc); ok {
		// The bucket outlives the key: later stages reuse the buffer.
		p.sink.key = key
		for _, ri := range st.ix.Lookup(key) {
			ok, err := p.pair(i, st.right[ri])
			if err != nil {
				return err
			}
			matched = matched || ok
		}
	}
	if matched || !st.jp.left {
		return nil
	}
	for c := st.accW; c < st.outW; c++ {
		p.frame[c] = sqltypes.Null()
	}
	st.emitted++
	return p.join(i + 1)
}

// pair places one candidate right row of stage i in the frame, evaluates
// the stage's residual conjuncts and, when they hold, passes the frame on.
func (p *pipeline) pair(i int, rrow sqltypes.Row) (bool, error) {
	st := &p.stages[i]
	st.pairs++
	if err := p.cancel.poll(); err != nil {
		return false, err
	}
	copy(p.frame[st.accW:st.outW], rrow)
	if ok, err := truthyAll(st.jp.residual, p.rc); err != nil || !ok {
		return false, err
	}
	st.emitted++
	return true, p.join(i + 1)
}

// arenaChunkBytes caps an arena chunk below the runtime's large-object
// threshold, so chunks come from the size-classed allocator.
const arenaChunkBytes, valueBytes = 16 << 10, int(unsafe.Sizeof(sqltypes.Value{}))

// rowArena hands out fixed-length rows carved from shared chunks: a
// chunk holds twice the rows of the one before, up to arenaChunkBytes,
// so a short result costs a few allocations and a long one one per
// chunk, not one per row. Each row is capped at its length, so appending
// to one copies instead of overwriting its neighbour.
// Chunks come from the arena's slab, which recycles them.
type rowArena struct {
	chunk sqltypes.Row
	rows  int // rows the current chunk was sized for
	slab  *slab
}

// reserve sizes the next chunk for rows rows of length n.
func (a *rowArena) reserve(rows, n int) {
	a.chunk, a.rows = a.slab.chunk(rows*n), rows
}

func (a *rowArena) alloc(n int) sqltypes.Row {
	if n == 0 {
		return sqltypes.Row{}
	}
	if cap(a.chunk)-len(a.chunk) < n {
		a.rows = max(1, min(2*a.rows, arenaChunkBytes/(n*valueBytes)))
		a.chunk = a.slab.chunk(a.rows * n)
	}
	lo := len(a.chunk)
	a.chunk = a.chunk[:lo+n]
	return a.chunk[lo : lo+n : lo+n]
}
