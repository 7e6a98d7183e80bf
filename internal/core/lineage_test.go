package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"cyclesql/internal/datasets"
	"cyclesql/internal/explain"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// cachedEntries counts a cache's entries across both keyspaces.
func cachedEntries[V any](c *boundedCache[V]) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m) + len(c.views)
}

// cachedView returns the view whose value the cache holds for a live
// store, or nil.
func cachedView[V any](c *boundedCache[V], live *storage.Database) *storage.Database {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.views[live].view
}

// identity is the write the tests run: it rewrites every row with itself,
// so the store's answers never change while its epoch moves.
func identity(string, sqltypes.Row) {}

// TestStaleSnapshotIsCollectable is the keystone of the per-store caches:
// once a pipeline has translated on a newer view of a store, nothing it
// holds reaches the older view, so the collector frees that view (and
// with it the executor, explainer, plans and indexes built for it) while
// the pipeline lives on. Two translates on the newer view share one
// executor and one explainer.
func TestStaleSnapshotIsCollectable(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	live := bench.DB(ex.DBName).Clone()
	reject := nli.Func{Label: "reject-all", Fn: func(context.Context, string, nli.Premise) bool { return false }}
	p := &Pipeline{Model: nl2sql.MustByName("resdsql-3b"), Verifier: reject, Benchmark: bench.Name}
	ctx := context.Background()

	old := func() weak.Pointer[storage.Database] {
		s1 := live.Snapshot()
		if _, err := p.Translate(ctx, ex, s1.DB()); err != nil {
			t.Fatal(err)
		}
		return weak.Make(s1.DB())
	}()
	live.Mutate(identity)
	s2 := live.Snapshot()
	var execs [2]*sqleval.Executor
	var explainers [2]*explain.Explainer
	for i := range execs {
		if _, err := p.Translate(ctx, ex, s2.DB()); err != nil {
			t.Fatal(err)
		}
		execs[i], explainers[i] = p.Executor(s2.DB()), p.feedback.explainer(s2.DB())
	}
	if execs[0] != execs[1] || explainers[0] != explainers[1] {
		t.Fatal("two translates on one view must share one executor and one explainer")
	}
	if n, m := cachedEntries(&p.execs), cachedEntries(&p.feedback.explainers); n != 1 || m != 1 {
		t.Fatalf("cached %d executors and %d explainers, want one each", n, m)
	}
	runtime.GC()
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("the pipeline still reaches a snapshot view that a newer view of its store replaced")
	}
	runtime.KeepAlive(p)
}

// TestStaleAndFreshSnapshotsRace translates on an old and a new view of
// one store concurrently while a writer rewrites the store; run with
// -race. Every translation must match a reference pipeline's answer on
// the unsnapshotted database, and once the newer view has been seen the
// cached executor and explainer are always the newer view's: a straggler
// on the old view gets a value of its own and never evicts them.
func TestStaleAndFreshSnapshotsRace(t *testing.T) {
	bench := datasets.Spider()
	name := bench.Dev[0].DBName
	var dev []datasets.Example
	for _, ex := range bench.Dev {
		if ex.DBName == name && len(dev) < 6 {
			dev = append(dev, ex)
		}
	}
	newPipeline := func() *Pipeline {
		return &Pipeline{Model: nl2sql.MustByName("picard-3b"), Verifier: nli.FewShotLLM{}, Benchmark: bench.Name, Parallelism: 2}
	}
	ctx := context.Background()
	answer := func(res *Result) string {
		s := fmt.Sprintf("%s|%v|%d", res.FinalSQL, res.Verified, res.Iterations)
		for _, pr := range res.Premises {
			s += "|" + pr.Explanation
		}
		return s
	}
	ref := newPipeline()
	want := make([]string, len(dev))
	for i, ex := range dev {
		res, err := ref.Translate(ctx, ex, bench.DB(name))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer(res)
	}

	live := bench.DB(name).Clone()
	p := newPipeline()
	s1 := live.Snapshot()
	live.Mutate(identity)
	s2 := live.Snapshot()
	var sawNew atomic.Bool
	checkNewest := func() error {
		if !sawNew.Load() {
			return nil
		}
		if v := cachedView(&p.execs, live); v != s2.DB() {
			return fmt.Errorf("cached executor belongs to %p, not the newest view %p", v, s2.DB())
		}
		if v := cachedView(&p.feedback.explainers, live); v != s2.DB() {
			return fmt.Errorf("cached explainer belongs to %p, not the newest view %p", v, s2.DB())
		}
		return nil
	}

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			live.Mutate(identity)
			runtime.Gosched()
		}
	}()
	const translators = 4
	errs := make(chan error, translators)
	var wg sync.WaitGroup
	for g := 0; g < translators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			snap := s1
			if g%2 == 1 {
				snap = s2
			}
			for round := 0; round < 2; round++ {
				for i, ex := range dev {
					res, err := p.Translate(ctx, ex, snap.DB())
					if err != nil {
						errs <- err
						return
					}
					if got := answer(res); got != want[i] {
						errs <- fmt.Errorf("translator %d, %q on epoch %d:\n got %s\nwant %s", g, ex.Question, snap.Epoch(), got, want[i])
						return
					}
					if snap == s2 {
						sawNew.Store(true)
					}
					if err := checkNewest(); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-writerDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := checkNewest(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveStoreAndViewStayWarm alternates translates on a live store and
// on a snapshot of it: each keeps its own executor and explainer warm,
// because a store and its views are cached in separate keyspaces.
func TestLiveStoreAndViewStayWarm(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	live := bench.DB(ex.DBName).Clone()
	view := live.Snapshot().DB()
	reject := nli.Func{Label: "reject-all", Fn: func(context.Context, string, nli.Premise) bool { return false }}
	p := &Pipeline{Model: nl2sql.MustByName("resdsql-3b"), Verifier: reject, Benchmark: bench.Name}
	dbs := [2]*storage.Database{live, view}
	var execs [2]*sqleval.Executor
	var explainers [2]*explain.Explainer
	for i := 0; i < 6; i++ {
		db := dbs[i%2]
		if _, err := p.Translate(context.Background(), ex, db); err != nil {
			t.Fatal(err)
		}
		e, x := p.Executor(db), p.feedback.explainer(db)
		if i < 2 {
			execs[i], explainers[i] = e, x
		} else if e != execs[i%2] || x != explainers[i%2] {
			t.Fatalf("translate %d: the %s lost its warm executor or explainer", i, [2]string{"live store", "view"}[i%2])
		}
	}
	if execs[0] == execs[1] || explainers[0] == explainers[1] {
		t.Fatal("a live store and its view must not share an executor or an explainer")
	}
}
