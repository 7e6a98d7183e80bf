package main

import (
	"context"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"cyclesql/internal/core"
	"cyclesql/internal/explain"
	"cyclesql/internal/nli"
	"cyclesql/internal/provenance"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// storageReps is how many snapshot pins and identity writes the storage
// replay times per database.
const storageReps = 5

// cost is one replayed layer's time per call and exact allocation count.
type cost struct {
	calls  int
	total  time.Duration
	allocs uint64
}

func (c cost) perCall() time.Duration {
	if c.calls == 0 {
		return 0
	}
	return c.total / time.Duration(c.calls)
}

// measure calls fn(i) for every i in [0,n): once untimed to fill caches
// when warm is set, then timed while counting heap allocations. Two
// collections first empty every sync.Pool, and the collector then stays
// off, so the warm run leaves the same pooled state behind on every run
// and the count repeats exactly, given one goroutine on one P.
func measure(n int, warm bool, fn func(i int)) cost {
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if warm {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return cost{calls: n, total: took, allocs: after.Mallocs - before.Mallocs}
}

// replayOut is the per-layer replay's result.
type replayOut struct {
	parse, cacheKey, cold, warm, track, compose, verify, translate cost
	candidates, failed                                             int
	rowsOut                                                        float64
	snapshotUS, mutateUS                                           float64
	rows                                                           int
}

// covered is the replay's time for the work the loop does in situ per
// pass: executing, tracking, composing and verifying every examined
// candidate.
func (r replayOut) covered() time.Duration {
	return r.warm.total + r.track.total + r.compose.total + r.verify.total
}

// item is one examined candidate of a reference result.
type item struct {
	db       *storage.Database
	sql      string
	stmt     *sqlast.SelectStmt
	question string
}

// replayLayers replays every candidate the reference results examined, in
// dev order, through each layer's exported entry point in turn, then
// times the storage layer and one whole sequential pass. trained is the
// bare verifier the whole-pass allocation count runs with, so the count
// carries no simulated-latency timers.
func replayLayers(ctx context.Context, e *env, trained nli.Verifier) replayOut {
	var items []item
	for i, ex := range e.dev {
		r := e.refs[i]
		for _, c := range r.Candidates[:r.Iterations] {
			items = append(items, item{db: e.dbs[ex.DBName], sql: c.SQL, stmt: c.Stmt, question: ex.Question})
		}
	}
	n := len(items)
	out := replayOut{candidates: n}
	// One P, so every pooled object comes from and returns to one per-P
	// cache and the allocation counts repeat exactly.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// The replay times each call whatever it returns; candidates that fail
	// to execute are counted below and skipped by the later layers.
	out.parse = measure(n, true, func(i int) { _, _ = sqlparse.Parse(items[i].sql) })
	out.cacheKey = measure(n, true, func(i int) { _ = sqlnorm.CacheKey(items[i].stmt) })
	out.cold = measure(n, false, func(i int) { _, _ = sqleval.New(items[i].db).ExecContext(ctx, items[i].stmt) })

	execs := map[*storage.Database]*sqleval.Executor{}
	trackers := map[*storage.Database]*provenance.Tracker{}
	explainers := map[*storage.Database]*explain.Explainer{}
	for _, db := range e.dbs {
		execs[db], trackers[db], explainers[db] = sqleval.New(db), provenance.NewTracker(db), explain.New(db)
	}
	rels := make([]*sqltypes.Relation, n)
	out.warm = measure(n, true, func(i int) {
		rels[i], _ = execs[items[i].db].ExecContext(ctx, items[i].stmt)
	})
	// Later layers only see candidates that executed, as in the loop.
	var ok []int
	rows := 0
	for i, rel := range rels {
		if rel != nil {
			ok = append(ok, i)
			rows += rel.NumRows()
		}
	}
	out.failed = n - len(ok)
	out.rowsOut = ratio(float64(rows), float64(len(ok)))

	provs := make([]*provenance.Provenance, n)
	out.track = measure(len(ok), true, func(k int) {
		i := ok[k]
		provs[i], _ = trackers[items[i].db].TrackContext(ctx, items[i].stmt, rels[i], 0)
	})
	out.compose = measure(len(ok), true, func(k int) {
		i := ok[k]
		if provs[i] != nil {
			_, _ = explainers[items[i].db].FromProvenance(provs[i])
		}
	})
	fb := core.NewDataGrounded()
	premises := make([]nli.Premise, n)
	var verifiable []int
	for _, i := range ok {
		p, err := fb.Premise(ctx, items[i].db, items[i].stmt, rels[i])
		if err == nil {
			premises[i] = p
			verifiable = append(verifiable, i)
		}
	}
	// The verifier keeps no cache, so a warm-up pass would only re-pay any
	// simulated inference wait.
	out.verify = measure(len(verifiable), false, func(k int) {
		i := verifiable[k]
		_, _ = nli.VerifyContext(ctx, e.verifier, items[i].question, premises[i])
	})

	out.snapshotUS, out.mutateUS, out.rows = replayStorage(e.dbs)

	p := loopLimits().Pipeline(e.beams, trained, "spider", nil)
	out.translate = measure(len(e.dev), true, func(i int) {
		ex := e.dev[i]
		_, _ = p.Translate(ctx, ex, e.dbs[ex.DBName])
	})
	return out
}

// replayStorage times, on a private clone of every database, pinning a
// snapshot and then an identity write to the pinned store, which copies
// every table before rewriting it, as serve-writes' writer does. It
// returns the median pin and write times and the total row count.
func replayStorage(dbs map[string]*storage.Database) (snapshotUS, mutateUS float64, rows int) {
	var pins, writes []float64
	for _, name := range sortedNames(dbs) {
		db := dbs[name].Clone()
		rows += db.TotalRows()
		for r := 0; r < storageReps; r++ {
			t0 := time.Now()
			db.Snapshot()
			t1 := time.Now()
			db.Mutate(func(string, sqltypes.Row) {})
			pins = append(pins, us(t1.Sub(t0)))
			writes = append(writes, us(time.Since(t1)))
		}
	}
	return median(pins), median(writes), rows
}

func sortedNames(dbs map[string]*storage.Database) []string {
	names := make([]string, 0, len(dbs))
	for name := range dbs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
