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
// lowers every expression into a closure. The execute phase reads point
// lookups and range spans straight off lazily built storage indexes,
// streams ordered output (stream.go) in index order with early cutoff
// under LIMIT, streams rows through hash equi-joins (single-column build
// sides reuse the table's column index and multi-key build sides its
// composite index instead of rebuilding a hash table per execution;
// otherwise the build side is chosen by cardinality, with a nested-loop
// fallback for non-equi conditions), evaluates the pre-bound closures
// directly against flat rows — no per-row environment allocation, no name
// lookups — and uses compact binary row keys (sqltypes.AppendKey) for
// every dedup, grouping, and join-matching structure. Every other core
// runs one push path: the base scan, or the core's last join, hands each
// frame row as a scratch view to the core's sink (project.go), which
// applies the post-join WHERE and then projects the row or folds it into
// its group's aggregate accumulators, so no joined row is copied except
// each group's first; intermediate joins of a multi-join core still
// materialize, because the next join reads its input whole. The compile phase
// also classifies every subquery expression: an uncorrelated one (no
// column reference reaches an enclosing query) runs at most once per
// execution, on first use, and later rows read its memoised result — IN
// members from a hash set (subquery.go); a correlated one re-runs once per
// outer row. Compiled plans are cached per executor, first by
// statement identity and then by canonical SQL (sqlnorm.CacheKey), so
// re-executing a statement — or a textually identical candidate arriving
// as a distinct AST from another beam — skips straight to execution.
// Statements must not be mutated between executions through the same
// executor.
//
// An Executor is safe for concurrent ExecContext calls: execution state
// (the subquery-depth guard, the subquery memo, row contexts, scratch
// buffers) belongs to the call, never to the executor or a cached plan;
// the plan cache is guarded by a read-mostly lock, and the storage layer
// guards its lazy index builds. The database contents must not be mutated
// while executions are in flight (the store itself documents the same
// reader/writer contract).
//
// Cancellation: ExecContext aborts a running query when its context is
// cancelled. The context is checked on entry to every program (so a
// statement — or a correlated subquery evaluated per outer row — never
// starts against a dead context) and then polled every
// cancelCheckInterval rows inside the scan-filter, join, and projection
// inner loops, so even a single pathological cross join returns within a
// bounded number of row visits of the cancellation. A memoised subquery
// keeps the per-row entry check, so it observes cancellation at the same
// outer row a re-run would. A nil context executes as
// context.Background() and never aborts.
package sqleval

import (
	"context"
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
	// mu guards the two plan maps; compiled plans themselves are immutable
	// after compilation, so concurrent executions share them freely.
	mu sync.RWMutex
	// plans caches compiled programs by statement identity (the fast path
	// for re-executing the same AST), plansByKey by canonical SQL, so
	// textually identical statements arriving as distinct ASTs share one
	// compiled plan. Both maps hold the same programs. Sharing stays sound
	// under cost-based planning because sqlnorm.CacheKey canonicalizes the
	// statement WITH its literals: two statements can only share a key by
	// having identical literals, hence identical estimated selectivities —
	// a plan chosen for one is the plan that would be chosen for the other.
	// Plans are costed against the statistics visible at first compile and
	// deliberately not re-costed as the database grows; callers that want
	// fresh plans after bulk loads use a fresh executor (the serving layer
	// already creates one per snapshot).
	plans      map[*sqlast.SelectStmt]*program
	plansByKey map[string]*program

	// mode restricts the access paths the compiler may lower to; it is
	// fixed at construction, so every cached plan was compiled under it.
	mode planMode

	// trace, when non-nil, receives actual row counts keyed by plan-node id
	// during execution. It is only ever set on the throwaway executor
	// PlanTree builds for itself, so normal executions — including
	// concurrent ones — pay a single nil check per recording site.
	trace *execTrace
}

// New returns an executor over db.
func New(db *storage.Database) *Executor { return &Executor{db: db} }

// planMode selects which access paths the compiler lowers to. Only
// costPlan runs in production; the two restricted modes are the reference
// legs the parity tests hold it to.
type planMode uint8

const (
	// costPlan chooses probes, build sides, streamed orderings and join
	// orders by estimated selectivity (cost.go).
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

// maxCachedPlans bounds each of the per-executor plan maps; long-lived
// executors (the CycleSQL pipeline keeps one per database) reset a map on
// overflow.
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
// CycleSQL loop uses this to abandon in-flight speculative candidate
// executions once an earlier candidate validates, and the batch
// experiment driver to enforce per-example timeouts.
func (ex *Executor) ExecContext(ctx context.Context, stmt *sqlast.SelectStmt) (*sqltypes.Relation, error) {
	if ctx == nil {
		//vetcycle:allow ctxflow -- nil-ctx guard for legacy callers; nothing upstream to thread
		ctx = context.Background()
	}
	prog, err := ex.compiled(stmt)
	if err != nil {
		return nil, err
	}
	return ex.runProgram(newExecution(ctx, prog), prog, nil)
}

// execution is the state one execution of a statement threads, by value,
// through every program, core and row context it runs: the caller's
// context, the subquery memo, and the subquery nesting depth of the
// program being run (1 for the statement itself).
type execution struct {
	qctx  context.Context
	memo  []subMemo
	depth int
}

// newExecution starts one execution of a top-level program. The memo has
// one slot per uncorrelated subquery and lives for this execution only, so
// a cached plan never holds results and concurrent executions share
// nothing; a statement without uncorrelated subqueries allocates none.
func newExecution(ctx context.Context, p *program) execution {
	e := execution{qctx: ctx, depth: 1}
	if p.slots > 0 {
		e.memo = make([]subMemo, p.slots)
	}
	return e
}

// nested is the execution one subquery level down.
func (e execution) nested() execution {
	e.depth++
	return e
}

func (ex *Executor) compiled(stmt *sqlast.SelectStmt) (*program, error) {
	ex.mu.RLock()
	if p, ok := ex.plans[stmt]; ok {
		ex.mu.RUnlock()
		return p, nil
	}
	key := sqlnorm.CacheKey(stmt)
	p, ok := ex.plansByKey[key]
	ex.mu.RUnlock()
	if ok {
		ex.storePlan(stmt, key, p)
		return p, nil
	}
	// Compile outside the lock; concurrent compilations of the same
	// statement are idempotent (programs are interchangeable), the last
	// store wins.
	c := &compiler{ex: ex}
	p, err := c.compileStmt(stmt, nil)
	if err != nil {
		return nil, err
	}
	p.nodes, p.subs, p.slots = c.nodes, c.subs, c.slots
	ex.storePlan(stmt, key, p)
	return p, nil
}

func (ex *Executor) storePlan(stmt *sqlast.SelectStmt, key string, p *program) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.plans == nil {
		ex.plans = make(map[*sqlast.SelectStmt]*program)
		ex.plansByKey = make(map[string]*program)
	}
	// Each map is bounded on its own: the identity map gains an entry for
	// every fresh AST, so it overflows long before the canonical map, and
	// resetting it must not drop the compiled plans the canonical map
	// still shares.
	if len(ex.plans) >= maxCachedPlans {
		clear(ex.plans)
	}
	if _, ok := ex.plansByKey[key]; !ok && len(ex.plansByKey) >= maxCachedPlans {
		clear(ex.plansByKey)
	}
	ex.plans[stmt] = p
	ex.plansByKey[key] = p
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
		result, err = combine(result, rhs, op)
		if err != nil {
			return nil, err
		}
	}
	return result, nil
}

func combine(l, r *sqltypes.Relation, op sqlast.CompoundOp) (*sqltypes.Relation, error) {
	if l.NumCols() != r.NumCols() {
		return nil, fmt.Errorf("sqleval: %s operands have %d vs %d columns", op, l.NumCols(), r.NumCols())
	}
	out := sqltypes.NewRelation(l.Columns...)
	var buf []byte
	switch op {
	case sqlast.UnionAll:
		out.Rows = append(append(out.Rows, l.Rows...), r.Rows...)
	case sqlast.Union:
		seen := make(map[string]struct{}, len(l.Rows))
		for _, rows := range [][]sqltypes.Row{l.Rows, r.Rows} {
			for _, row := range rows {
				buf = row.AppendKey(buf[:0])
				if _, dup := seen[string(buf)]; !dup {
					seen[string(buf)] = struct{}{}
					out.Append(row)
				}
			}
		}
	case sqlast.Intersect:
		inR := make(map[string]struct{}, len(r.Rows))
		for _, row := range r.Rows {
			buf = row.AppendKey(buf[:0])
			inR[string(buf)] = struct{}{}
		}
		seen := make(map[string]struct{})
		for _, row := range l.Rows {
			buf = row.AppendKey(buf[:0])
			if _, hit := inR[string(buf)]; !hit {
				continue
			}
			if _, dup := seen[string(buf)]; !dup {
				seen[string(buf)] = struct{}{}
				out.Append(row)
			}
		}
	case sqlast.Except:
		inR := make(map[string]struct{}, len(r.Rows))
		for _, row := range r.Rows {
			buf = row.AppendKey(buf[:0])
			inR[string(buf)] = struct{}{}
		}
		seen := make(map[string]struct{})
		for _, row := range l.Rows {
			buf = row.AppendKey(buf[:0])
			if _, hit := inR[string(buf)]; hit {
				continue
			}
			if _, dup := seen[string(buf)]; !dup {
				seen[string(buf)] = struct{}{}
				out.Append(row)
			}
		}
	default:
		return nil, fmt.Errorf("sqleval: unknown set operation %q", op)
	}
	return out, nil
}

// runCore executes one SELECT core: a sorted-index walk (runStream) when
// its ordering was lowered to one, otherwise the push path, where the
// frame rows flow from the base scan or the last join straight into the
// core's sink.
func (ex *Executor) runCore(e execution, cc *compiledCore, outer *rowCtx) (*sqltypes.Relation, error) {
	if cc.stream != nil {
		return ex.runStream(e, cc, outer)
	}
	s := &coreSink{cc: cc, rc: rowCtx{parent: outer, execution: e}}
	if err := ex.pushFrom(e, cc, outer, s); err != nil {
		return nil, err
	}
	result, err := s.finish()
	if err == nil && ex.trace != nil {
		if len(cc.filters) > 0 {
			ex.trace.addRows(cc.filterID, s.kept)
		}
		ex.trace.addRows(cc.id, int64(len(result.Rows)))
	}
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
// base scan (filtered by any pushed-down conjuncts) joined with each
// subsequent table. Every join but the last materializes its output, since
// the next join reads it whole (and picks its build side by its length);
// the last pushes its scratch row directly.
func (ex *Executor) pushFrom(e execution, cc *compiledCore, outer *rowCtx, s *coreSink) error {
	if len(cc.scans) == 0 {
		// SELECT without FROM evaluates items once over an empty row.
		return s.push(sqltypes.Row{})
	}
	rows, owned, err := cc.scans[0].rows(ex, e, outer)
	if err != nil {
		return err
	}
	cancel := cancelCheck{ctx: e.qctx}
	if len(cc.baseFilters) > 0 {
		kept := rows[:0]
		if !owned {
			kept = rows[:0:0]
		}
		// The sink's context is idle until the first push, so the base
		// filters borrow it.
		rc := &s.rc
		for _, row := range rows {
			if err := cancel.poll(); err != nil {
				return err
			}
			rc.row = row
			ok, err := truthyAll(cc.baseFilters, rc)
			if err != nil {
				return err
			}
			if ok {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	if len(cc.joins) == 0 {
		for _, row := range rows {
			if err := cancel.poll(); err != nil {
				return err
			}
			if err := s.push(row); err != nil {
				return err
			}
		}
		return nil
	}
	accW := cc.scans[0].width
	last := len(cc.joins) - 1
	for i, jp := range cc.joins {
		next := cc.scans[i+1]
		right, _, err := next.rows(ex, e, outer)
		if err != nil {
			return err
		}
		if i == last {
			return ex.execJoin(e, rows, accW, next, right, jp, outer, s)
		}
		buf := &rowBuffer{}
		if err := ex.execJoin(e, rows, accW, next, right, jp, outer, buf); err != nil {
			return err
		}
		rows = buf.rows
		accW += next.width
	}
	return nil
}

// rowBuffer materializes an intermediate join's output into rows carved
// from an arena.
type rowBuffer struct {
	rows  []sqltypes.Row
	arena rowArena
}

func (b *rowBuffer) push(row sqltypes.Row) error {
	r := b.arena.alloc(len(row))
	copy(r, row)
	b.rows = append(b.rows, r)
	return nil
}

// arenaChunkBytes caps an arena chunk below the runtime's large-object
// threshold, so chunks come from the size-classed allocator.
const arenaChunkBytes = 16 << 10

// rowArena hands out fixed-length rows carved from shared chunks: a
// chunk holds twice the rows of the one before, up to arenaChunkBytes,
// so a short result costs a few allocations and a long one one per
// chunk, not one per row. Each row is capped at its length, so appending
// to one copies instead of overwriting its neighbour.
type rowArena struct {
	chunk sqltypes.Row
	rows  int // rows the current chunk was sized for
}

// reserve sizes the next chunk for rows rows of length n.
func (a *rowArena) reserve(rows, n int) {
	a.chunk, a.rows = make(sqltypes.Row, 0, rows*n), rows
}

func (a *rowArena) alloc(n int) sqltypes.Row {
	if n == 0 {
		return sqltypes.Row{}
	}
	if cap(a.chunk)-len(a.chunk) < n {
		a.rows = max(1, min(2*a.rows, arenaChunkBytes/(n*int(unsafe.Sizeof(sqltypes.Value{})))))
		a.chunk = make(sqltypes.Row, 0, a.rows*n)
	}
	lo := len(a.chunk)
	a.chunk = a.chunk[:lo+n]
	return a.chunk[lo : lo+n : lo+n]
}

// execJoin combines the accumulated frame rows with one table, pushing
// each joined row into sink as a scratch view. With a single equi key
// against a whole base table it probes the table's column index — the
// prebuilt equivalent of the hash table the generic path rebuilds per
// execution. With equi keys otherwise it runs a streaming
// hash join, building the hash table on the smaller side; without keys it
// falls back to a nested loop. All paths emit rows in identical order
// (left-major, right rows in scan order) and null-extend unmatched left
// rows inline for LEFT JOIN, matching rows by index — never by value — so
// duplicate-valued rows cannot collide.
func (ex *Executor) execJoin(e execution, acc []sqltypes.Row, accW int, next *tableScan, right []sqltypes.Row, jp *joinPlan, outer *rowCtx, sink rowSink) (err error) {
	outW := accW + next.width
	scratch := make(sqltypes.Row, outW)
	rc := &rowCtx{parent: outer, row: scratch, execution: e}
	// One amortized cancellation counter covers every candidate pair
	// (through tryPair) and every build-side row, so even an n×m nested
	// loop observes cancellation within cancelCheckInterval pair visits.
	cancel := cancelCheck{ctx: e.qctx}
	var pairs, emitted int64
	if ex.trace != nil {
		defer func() {
			if err == nil {
				ex.trace.addRows(jp.id, emitted)
				ex.trace.addPairs(jp.id, pairs)
			}
		}()
	}

	// tryPair evaluates the residual over scratch (left part already
	// filled) and emits on success.
	tryPair := func(rrow sqltypes.Row) (bool, error) {
		pairs++
		if err := cancel.poll(); err != nil {
			return false, err
		}
		copy(scratch[accW:], rrow)
		if len(jp.residual) > 0 {
			ok, err := truthyAll(jp.residual, rc)
			if err != nil || !ok {
				return false, err
			}
		}
		emitted++
		return true, sink.push(scratch)
	}
	// nullExtend emits a LEFT JOIN's left row that matched nothing.
	nullExtend := func(matched bool) error {
		if !jp.left || matched {
			return nil
		}
		for i := accW; i < outW; i++ {
			scratch[i] = sqltypes.Null()
		}
		emitted++
		return sink.push(scratch)
	}

	if len(jp.eqAcc) == 0 {
		// Nested loop: cross join, or arbitrary non-equi ON condition.
		for _, lrow := range acc {
			if err := cancel.poll(); err != nil {
				return err
			}
			copy(scratch, lrow)
			matched := false
			for _, rrow := range right {
				ok, err := tryPair(rrow)
				if err != nil {
					return err
				}
				matched = matched || ok
			}
			if err := nullExtend(matched); err != nil {
				return err
			}
		}
		return nil
	}

	var buf []byte
	if jp.reuse {
		// The build side is a whole base table: reuse (or lazily build, once
		// per database) its column index — or, for multi-key joins, its
		// composite index over the exact key-column sequence — instead of
		// hashing the table again on every execution. Index buckets hold
		// row positions in scan order, so output order matches the generic
		// paths, and buckets and probe keys share the Compare-consistent
		// AppendCompareKey encoding the generic paths use, so the matched
		// pairs are bit-identical too.
		lookup := func() func([]byte) []int32 {
			if len(jp.eqNew) == 1 {
				return ex.db.Index(next.table, jp.eqNew[0]).Lookup
			}
			return ex.db.Composite(next.table, jp.eqNew).Lookup
		}()
		for _, lrow := range acc {
			if err := cancel.poll(); err != nil {
				return err
			}
			copy(scratch, lrow)
			matched := false
			if key, ok := lrow.AppendCompareKeyCols(buf[:0], jp.eqAcc); ok {
				buf = key
				for _, ri := range lookup(key) {
					hit, err := tryPair(right[ri])
					if err != nil {
						return err
					}
					matched = matched || hit
				}
			}
			if err := nullExtend(matched); err != nil {
				return err
			}
		}
		return nil
	}
	if len(right) <= len(acc) {
		// Build on the right side; probe with left rows in order.
		ht := make(map[string][]int32, len(right))
		for ri, rrow := range right {
			if err := cancel.poll(); err != nil {
				return err
			}
			key, ok := joinKey(buf[:0], rrow, jp.eqNew)
			if !ok {
				continue
			}
			buf = key
			ht[string(key)] = append(ht[string(key)], int32(ri))
		}
		for _, lrow := range acc {
			if err := cancel.poll(); err != nil {
				return err
			}
			copy(scratch, lrow)
			matched := false
			if key, ok := joinKey(buf[:0], lrow, jp.eqAcc); ok {
				buf = key
				for _, ri := range ht[string(key)] {
					hit, err := tryPair(right[ri])
					if err != nil {
						return err
					}
					matched = matched || hit
				}
			}
			if err := nullExtend(matched); err != nil {
				return err
			}
		}
		return nil
	}

	// Build on the (smaller) left side; a per-left match list restores the
	// probe-left output order after scanning the right side once.
	ht := make(map[string][]int32, len(acc))
	for li, lrow := range acc {
		if err := cancel.poll(); err != nil {
			return err
		}
		key, ok := joinKey(buf[:0], lrow, jp.eqAcc)
		if !ok {
			continue
		}
		buf = key
		ht[string(key)] = append(ht[string(key)], int32(li))
	}
	matches := make([][]int32, len(acc))
	for ri, rrow := range right {
		if err := cancel.poll(); err != nil {
			return err
		}
		key, ok := joinKey(buf[:0], rrow, jp.eqNew)
		if !ok {
			continue
		}
		buf = key
		for _, li := range ht[string(key)] {
			matches[li] = append(matches[li], int32(ri))
		}
	}
	for li, lrow := range acc {
		if err := cancel.poll(); err != nil {
			return err
		}
		copy(scratch, lrow)
		matched := false
		for _, ri := range matches[li] {
			hit, err := tryPair(right[ri])
			if err != nil {
				return err
			}
			matched = matched || hit
		}
		if err := nullExtend(matched); err != nil {
			return err
		}
	}
	return nil
}

// joinKey encodes the equi-key columns of a row into dst. A NULL in any
// key column reports ok=false: NULL never equi-matches anything. The
// Compare-consistent encoding (sqltypes.AppendCompareKey, shared with the
// secondary indexes) matches the = operator exactly, keeping the hash and
// index paths bit-identical to the nested-loop path.
func joinKey(dst []byte, row sqltypes.Row, idxs []int) ([]byte, bool) {
	return row.AppendCompareKeyCols(dst, idxs)
}
