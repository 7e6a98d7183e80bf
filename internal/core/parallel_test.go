package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/storage"
)

// TestSequentialParallelParity is the concurrency contract's acceptance
// bar: over the Spider dev slice the existing parity suites use, the
// parallel loop must produce a Result identical to the sequential loop —
// same Final, Verified, Iterations, Premises and Errors — at every
// parallelism level.
func TestSequentialParallelParity(t *testing.T) {
	v := sharedVerifier(t)
	bench := datasets.Spider()
	dev := bench.Dev
	if len(dev) > 200 {
		dev = dev[:200]
	}
	model := nl2sql.MustByName("resdsql-3b")
	seq := &Pipeline{Model: model, Verifier: v, Benchmark: bench.Name}
	for _, workers := range []int{2, 4, 8} {
		par := &Pipeline{Model: model, Verifier: v, Benchmark: bench.Name}
		par.Parallelism = workers
		for _, ex := range dev {
			db := bench.DB(ex.DBName)
			rs, err := seq.Translate(context.Background(), ex, db)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := par.Translate(context.Background(), ex, db)
			if err != nil {
				t.Fatal(err)
			}
			if rs.FinalSQL != rp.FinalSQL || rs.Verified != rp.Verified || rs.Iterations != rp.Iterations {
				t.Fatalf("parallel=%d diverges on %q:\nseq: final=%q verified=%v iter=%d\npar: final=%q verified=%v iter=%d",
					workers, ex.Question, rs.FinalSQL, rs.Verified, rs.Iterations, rp.FinalSQL, rp.Verified, rp.Iterations)
			}
			if len(rs.Premises) != len(rp.Premises) || len(rs.Errors) != len(rp.Errors) {
				t.Fatalf("parallel=%d premise/error counts diverge on %q: %d/%d vs %d/%d",
					workers, ex.Question, len(rs.Premises), len(rs.Errors), len(rp.Premises), len(rp.Errors))
			}
			for i := range rs.Premises {
				if rs.Premises[i] != rp.Premises[i] {
					t.Fatalf("parallel=%d premise %d diverges on %q:\nseq: %+v\npar: %+v",
						workers, i, ex.Question, rs.Premises[i], rp.Premises[i])
				}
				if rs.Errors[i] != rp.Errors[i] {
					t.Fatalf("parallel=%d error %d diverges on %q: %q vs %q",
						workers, i, ex.Question, rs.Errors[i], rp.Errors[i])
				}
			}
		}
	}
}

// TestConcurrentTranslateStress drives one shared Pipeline through
// overlapping Translate calls — each of which verifies its own candidates
// in parallel — across interleaved databases. Run under -race, it
// exercises every shared structure of the loop at once: the executor and
// explainer caches, the per-database executors' plan caches, the lazy
// storage indexes, and the tracker memos.
func TestConcurrentTranslateStress(t *testing.T) {
	bench := datasets.Spider()
	dev := bench.Dev
	if len(dev) > 48 {
		dev = dev[:48]
	}
	p := &Pipeline{Model: nl2sql.MustByName("picard-3b"), Verifier: nli.FewShotLLM{}, Benchmark: bench.Name}
	p.Parallelism = 4

	const drivers = 4
	var wg sync.WaitGroup
	errs := make(chan error, drivers)
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := d; i < len(dev); i += drivers {
				ex := dev[i]
				res, err := p.Translate(context.Background(), ex, bench.DB(ex.DBName))
				if err != nil {
					errs <- fmt.Errorf("driver %d, %q: %w", d, ex.Question, err)
					return
				}
				if res.Iterations < 1 || res.Iterations > len(res.Candidates) {
					errs <- fmt.Errorf("driver %d, %q: iterations %d out of range", d, ex.Question, res.Iterations)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBoundedCacheConcurrent drives get from many goroutines across the
// eviction limit of both keyspaces — the race that exists for any caller
// sharing a Pipeline across goroutines, fixed by the cache's mutex — and
// checks each bound holds.
func TestBoundedCacheConcurrent(t *testing.T) {
	src := datasets.Spider().DB(datasets.Spider().Dev[0].DBName)
	stores := make([]*storage.Database, maxCachedPerDB+4) // cross the eviction limit on purpose
	views := make([]*storage.Database, len(stores))
	for i := range stores {
		stores[i] = storage.NewDatabase(src.Schema)
		views[i] = stores[i].Snapshot().DB()
	}
	var c boundedCache[*storage.Database]
	self := func(db *storage.Database) *storage.Database { return db }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(stores)
				if got := c.get(stores[k], self); got != stores[k] {
					t.Errorf("store %d: cached value belongs to another database", k)
				}
				if got := c.get(views[k], self); got != views[k] {
					t.Errorf("view %d: cached value belongs to another database", k)
				}
			}
		}(g)
	}
	wg.Wait()
	if len(c.m) > maxCachedPerDB || len(c.views) > maxCachedPerDB {
		t.Fatalf("cache holds %d stores and %d views, bound is %d each", len(c.m), len(c.views), maxCachedPerDB)
	}
}

// TestBoundedCacheGetOrCreateShares asserts the atomicity that matters to
// the loop: concurrent cold-key callers must all observe one value, for a
// database and for a snapshot view alike.
func TestBoundedCacheGetOrCreateShares(t *testing.T) {
	live := storage.NewDatabase(datasets.Spider().DB(datasets.Spider().Dev[0].DBName).Schema)
	for _, db := range []*storage.Database{live, live.Snapshot().DB()} {
		var c boundedCache[*int]
		var wg sync.WaitGroup
		results := make([]*int, 16)
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g] = c.get(db, func(*storage.Database) *int { return new(int) })
			}(g)
		}
		wg.Wait()
		for _, r := range results[1:] {
			if r != results[0] {
				t.Fatal("get handed different values to concurrent callers")
			}
		}
	}
}

// stubModel returns a fixed candidate list, letting tests stage beams with
// known-broken SQL.
type stubModel struct{ cands []nl2sql.Candidate }

func (s stubModel) Name() string               { return "stub" }
func (s stubModel) BaseLatency() time.Duration { return 0 }
func (s stubModel) Translate(string, datasets.Example, *storage.Database, int) []nl2sql.Candidate {
	return s.cands
}

func candidateOf(stmt *sqlast.SelectStmt) nl2sql.Candidate {
	return nl2sql.Candidate{SQL: stmt.SQL(), Stmt: stmt, Score: 1}
}

// TestTranslateRecordsCandidateErrors covers the premise-less fallback: a
// top-1 candidate that cannot execute must surface why, so drivers can
// tell "failed to execute" apart from "examined but not verified".
func TestTranslateRecordsCandidateErrors(t *testing.T) {
	bench := datasets.Spider()
	ex := bench.Dev[0]
	db := bench.DB(ex.DBName)
	bad := sqlast.Wrap(&sqlast.SelectCore{
		Items: []sqlast.SelectItem{{Star: true}},
		From:  &sqlast.FromClause{Base: sqlast.TableRef{Name: "no_such_table"}},
	})
	model := stubModel{cands: []nl2sql.Candidate{candidateOf(bad), candidateOf(ex.Gold)}}
	for _, workers := range []int{1, 4} {
		reject := nli.Func{Label: "reject-all", Fn: func(context.Context, string, nli.Premise) bool { return false }}
		p := &Pipeline{Model: model, Verifier: reject, Benchmark: bench.Name}
		p.Parallelism = workers
		res, err := p.Translate(context.Background(), ex, db)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verified {
			t.Fatal("reject-all verifier cannot verify")
		}
		if res.FinalSQL != bad.SQL() {
			t.Fatalf("fallback must still be the top-1 candidate, got %q", res.FinalSQL)
		}
		if len(res.Errors) != 2 {
			t.Fatalf("want 2 error slots, got %d", len(res.Errors))
		}
		if res.Errors[0].Stage != resilience.StageExecute || res.Errors[0].Err == "" {
			t.Fatalf("candidate 1 must record its execution failure, got %+v", res.Errors[0])
		}
		if !strings.HasPrefix(res.Errors[0].Error(), "execute: ") {
			t.Fatalf("stage error must render the execute prefix drivers log, got %q", res.Errors[0].Error())
		}
		if !res.Errors[1].IsZero() {
			t.Fatalf("candidate 2 executed fine, got error %+v", res.Errors[1])
		}
		if res.Premises[0].Explanation != "" || res.Premises[0].SQL != bad.SQL() {
			t.Fatalf("failed candidate keeps the empty premise shape, got %+v", res.Premises[0])
		}
	}
}

// TestDataGroundedExplainerPerDatabase pins that repeated lookups return
// the one explainer cached for a database.
func TestDataGroundedExplainerPerDatabase(t *testing.T) {
	bench := datasets.Spider()
	db := bench.DB(bench.Dev[0].DBName)
	d := NewDataGrounded()
	if d.explainer(db) != d.explainer(db) {
		t.Fatal("cached explainer must be shared per database")
	}
}
