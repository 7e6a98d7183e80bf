package sqleval

import (
	"context"
	"sync"
	"testing"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// This file holds owned results. Every execution takes the buffers it
// allocates from a slab: the arena chunks its records are carved from,
// the record slices, the scan buffers, the core sinks with their grouping
// tables (storage.Groups), pipeline frames and join build sides, and the
// subquery memo. Run takes the slab from a sync.Pool and Release hands it
// back, so the next execution reuses the storage instead of allocating
// it. ExecContext runs on a fresh slab that never enters the pool, so its
// relation stays the caller's.
//
// Within one execution the slab is a stack: a subquery's result is
// released as soon as the enclosing expression has read it (a memoised
// one once its slot is filled, a correlated one after each outer row), by
// rewinding the slab to a mark taken before the subquery ran. That is
// sound because a subquery runs to completion inside one expression
// evaluation, so everything the slab handed out after the mark belongs to
// it.
//
// A recycled row that something still reads is a silent wrong answer. So
// in a test binary every release overwrites the released values and row
// headers with poison, and a stale read shows up in a golden or a parity
// suite instead of passing unnoticed.

// Result is the output of one owned execution, together with the storage
// it was built in. Rel, its rows and their values stay valid until
// Release; after it they belong to a later execution. A Result is a small
// value: copies share the storage, and once any copy is released every
// copy's Release does nothing, because the slab's generation has moved
// on.
type Result struct {
	Rel  *sqltypes.Relation
	slab *slab
	gen  uint64
}

// Run executes stmt like ExecContext and returns its result as an owned
// Result. The caller must call Release once it no longer reads the
// result; a Result that is never released is simply collected.
func (ex *Executor) Run(ctx context.Context, stmt *sqlast.SelectStmt) (Result, error) {
	pl, err := ex.Prepare(stmt)
	if err != nil {
		return Result{}, err
	}
	return pl.Run(ctx)
}

// Plan is a statement compiled for one executor. A caller that runs the
// same statement again holds its Plan, so each run skips the canonical
// key and the plan cache lookup. A Plan is a small value; copies share
// the compiled program, which is immutable. The zero Plan must not be
// run.
type Plan struct {
	ex   *Executor
	prog *program
}

// Prepare compiles stmt, or takes its plan from the executor's cache.
func (ex *Executor) Prepare(stmt *sqlast.SelectStmt) (Plan, error) {
	prog, err := ex.compiled(stmt)
	if err != nil {
		return Plan{}, err
	}
	return Plan{ex: ex, prog: prog}, nil
}

// Run executes the plan like Executor.Run and returns its result as an
// owned Result, which the caller releases.
func (p Plan) Run(ctx context.Context) (Result, error) {
	sl := slabs.Get().(*slab)
	rel, err := p.ex.exec(ctx, p.prog, sl)
	if err != nil {
		sl.release()
		return Result{}, err
	}
	return Result{Rel: rel, slab: sl, gen: sl.gen}, nil
}

// Release hands the result's storage back for reuse. Neither the result,
// nor its relation, rows or values may be read afterwards. Release on the
// zero Result, or on a copy of a released one, does nothing.
func (r *Result) Release() {
	if r.slab != nil && r.slab.gen == r.gen {
		r.slab.release()
	}
	r.slab, r.Rel = nil, nil
}

var slabs = sync.Pool{New: func() any { return newSlab() }}

// newSlab returns an empty slab.
func newSlab() *slab {
	sl := new(slab)
	sl.held, sl.kept, sl.sinks = sl.held0[:0], sl.kept0[:0], sl.sinks0[:0]
	return sl
}

// poisoning is set in test binaries: released storage is overwritten with
// poison, a TEXT value no query produces.
var (
	poisoning = testing.Testing()
	poison    = sqltypes.NewText("\x00released")
	poisonRow = sqltypes.Row{poison}
)

// A slab keeps at most maxSlabChunks idle chunks of at most
// maxSlabChunkValues values and maxSlabBufs idle row buffers of at most
// maxSlabBufRows rows across a release, so one huge execution does not pin
// its storage in the pool.
const (
	maxSlabChunks      = 64
	maxSlabChunkValues = 8 * arenaChunkBytes / valueBytes
	maxSlabBufs        = 64
	maxSlabBufRows     = 1 << 14
)

// slab is the storage of one owned execution. Chunks and row buffers are
// either idle (chunks, bufs) or handed out: held chunks and kept buffers
// (records and scan rows) stay handed out until the slab rewinds past
// them. sinks are idle core sinks, memo the subquery memo slots, sets and
// ids the scratch of combine and of range-probe scans. rels are the
// result relations of the slab's first cores and set operations, nrel how
// many are handed out. rels and the first entries of held, kept and sinks
// live in the slab itself, so a fresh slab costs one allocation.
type slab struct {
	gen          uint64 // counts releases; see Result
	chunks, held []sqltypes.Row
	bufs, kept   [][]sqltypes.Row
	sinks        []*coreSink
	memo         []subMemo
	sets         [2]storage.Groups
	ids          []int32
	rels         [2]sqltypes.Relation
	nrel         int

	held0  [8]sqltypes.Row
	kept0  [8][]sqltypes.Row
	sinks0 [2]*coreSink
}

// slabMark is a slab position to rewind to: the held chunks, kept buffers
// and relations at the time it was taken.
type slabMark struct{ held, kept, nrel int }

func (sl *slab) mark() slabMark {
	return slabMark{len(sl.held), len(sl.kept), sl.nrel}
}

// relation returns an empty result relation with the given columns.
func (sl *slab) relation(cols []string) *sqltypes.Relation {
	if sl.nrel == len(sl.rels) {
		return sqltypes.NewRelation(cols...)
	}
	r := &sl.rels[sl.nrel]
	sl.nrel++
	*r = sqltypes.Relation{Columns: cols}
	return r
}

// rewind releases every chunk, record buffer and relation handed out
// since m.
func (sl *slab) rewind(m slabMark) {
	sl.nrel = m.nrel
	for i, c := range sl.held[m.held:] {
		if poisoning {
			c = c[:cap(c)]
			for j := range c {
				c[j] = poison
			}
		}
		sl.chunks = append(sl.chunks, c[:0])
		sl.held[m.held+i] = nil
	}
	sl.held = sl.held[:m.held]
	sl.bufs = recycle(sl.bufs, sl.kept[m.kept:])
	sl.kept = sl.kept[:m.kept]
}

// recycle moves row buffers onto the idle list, poisoned in a test binary,
// and clears their old slots.
func recycle(idle, bufs [][]sqltypes.Row) [][]sqltypes.Row {
	for i, b := range bufs {
		if poisoning {
			b = b[:cap(b)]
			for j := range b {
				b[j] = poisonRow
			}
		}
		idle = append(idle, b[:0])
		bufs[i] = nil
	}
	return idle
}

// release rewinds the whole slab, trims what it keeps idle and returns it
// to the pool.
func (sl *slab) release() {
	sl.gen++
	sl.rewind(slabMark{})
	sl.chunks = trim(sl.chunks, maxSlabChunks, maxSlabChunkValues)
	sl.bufs = trim(sl.bufs, maxSlabBufs, maxSlabBufRows)
	slabs.Put(sl)
}

// trim keeps at most n idle buffers of capacity at most c, clearing the
// dropped slots so the collector can take them.
func trim[B ~[]E, E any](idle []B, n, c int) []B {
	kept := idle[:0]
	for _, b := range idle {
		if cap(b) <= c && len(kept) < n {
			kept = append(kept, b)
		}
	}
	clear(idle[len(kept):])
	return kept
}

// chunk hands out an arena chunk with room for at least n values: an idle
// one when some is large enough, else a new one of exactly n. The arena
// fills whatever capacity it gets.
func (sl *slab) chunk(n int) sqltypes.Row {
	var c sqltypes.Row
	if i := fit(sl.chunks, n); i >= 0 {
		c = sl.chunks[i]
		sl.chunks = remove(sl.chunks, i)
	} else {
		c = make(sqltypes.Row, 0, n)
	}
	sl.held = append(sl.held, c)
	return c
}

// rows hands out an empty row buffer with capacity for at least n rows:
// an idle one that fits (any for 0), else a new one, or nil for 0.
func (sl *slab) rows(n int) []sqltypes.Row {
	if i := fit(sl.bufs, n); i >= 0 {
		b := sl.bufs[i]
		sl.bufs = remove(sl.bufs, i)
		return b
	}
	if n == 0 {
		return nil
	}
	return make([]sqltypes.Row, 0, n)
}

// reserve returns buf, or a row buffer with capacity for n rows in its
// place when buf has less, recycling buf.
func (sl *slab) reserve(buf []sqltypes.Row, n int) []sqltypes.Row {
	if cap(buf) >= n {
		return buf
	}
	if cap(buf) > 0 {
		sl.bufs = append(sl.bufs, buf[:0])
	}
	return sl.rows(n)
}

// keep registers a finished record buffer, whose rows belong to a result,
// so the slab recycles it when it rewinds past it.
func (sl *slab) keep(records []sqltypes.Row) {
	if cap(records) > 0 {
		sl.kept = append(sl.kept, records)
	}
}

// scan hands out a row buffer of length n for a scan's rows. It is kept
// like a record buffer, so it is recycled with the rows of the core that
// read it.
func (sl *slab) scan(n int) []sqltypes.Row {
	b := sl.rows(n)[:n]
	sl.kept = append(sl.kept, b)
	return b
}

// fit returns the index of the last buffer with capacity for n elements,
// or -1.
func fit[B ~[]E, E any](bufs []B, n int) int {
	for i := len(bufs) - 1; i >= 0; i-- {
		if cap(bufs[i]) >= n {
			return i
		}
	}
	return -1
}

// remove deletes element i by moving the last one into its place.
func remove[T any](s []T, i int) []T {
	last := len(s) - 1
	s[i] = s[last]
	var zero T
	s[last] = zero
	return s[:last]
}

// sink returns a core sink for one execution of cc: a fresh one, or an
// idle one that keeps its tables and slices from earlier executions.
func (sl *slab) sink(e execution, cc *compiledCore, outer *rowCtx) *coreSink {
	var s *coreSink
	if len(sl.sinks) > 0 {
		s = sl.sinks[len(sl.sinks)-1]
		sl.sinks = sl.sinks[:len(sl.sinks)-1]
	} else {
		s = new(coreSink)
	}
	s.cc, s.rc = cc, rowCtx{parent: outer, execution: e}
	s.arena = rowArena{slab: sl}
	if !cc.grouped {
		s.records = sl.rows(0)
	}
	return s
}

// putSink makes a finished sink idle. Its records and arena chunk belong
// to the core's result, so it drops them; its grouping state is scratch
// and is cleared for the next core.
func (sl *slab) putSink(s *coreSink) {
	s.cc, s.rc, s.kept, s.records, s.arena, s.view = nil, rowCtx{}, 0, nil, rowArena{}, groupView{}
	s.index.Reset()
	s.seen.Reset()
	s.groups, s.states, s.firsts, s.key = s.groups[:0], s.states[:0], s.firsts[:0], s.key[:0]
	sl.sinks = append(sl.sinks, s)
}

// memoSlots returns n zeroed subquery memo slots; slots the slab had
// before keep their member tables and key buffers, emptied.
func (sl *slab) memoSlots(n int) []subMemo {
	if cap(sl.memo) < n {
		sl.memo = append(sl.memo[:cap(sl.memo)], make([]subMemo, n-cap(sl.memo))...)
	}
	memo := sl.memo[:n]
	for i := range memo {
		ms := &memo[i].members
		ms.keys.Reset()
		memo[i] = subMemo{members: memberSet{keys: ms.keys, buf: ms.buf[:0]}}
	}
	return memo
}

// idsCopy returns a copy of ids the caller may reorder.
func (sl *slab) idsCopy(ids []int32) []int32 {
	sl.ids = append(sl.ids[:0], ids...)
	return sl.ids
}
