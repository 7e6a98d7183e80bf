package sqleval

import (
	"context"
	"errors"
	"testing"
	"time"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// wideDB builds two single-column tables of n rows each with no matching
// values, so a cross or non-equi join between them is an n^2 nested loop
// that produces nothing — the worst case the cancellation checks exist
// for.
func wideDB(t testing.TB, n int) *storage.Database {
	t.Helper()
	s := &schema.Schema{
		Name: "wide",
		Tables: []*schema.Table{
			{Name: "L", Columns: []schema.Column{{Name: "a", Type: sqltypes.KindInt, PrimaryKey: true}}},
			{Name: "R", Columns: []schema.Column{{Name: "b", Type: sqltypes.KindInt, PrimaryKey: true}}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(s)
	for i := 0; i < n; i++ {
		db.MustInsert("L", sqltypes.NewInt(int64(i)))
		db.MustInsert("R", sqltypes.NewInt(int64(i+n)))
	}
	return db
}

// TestExecContextPreCancelled pins the promptness contract: a context
// cancelled before the call returns its error before any rows are
// visited, even for a scan/join that would take far longer than the test
// itself.
func TestExecContextPreCancelled(t *testing.T) {
	db := wideDB(t, 4000)
	// L.a < n <= R.b, so the non-equi join visits all 16M pairs but emits
	// none — the live re-execution below stays cheap to materialize.
	stmt, err := sqlparse.Parse("SELECT count(*) FROM L JOIN R ON L.a > R.b")
	if err != nil {
		t.Fatal(err)
	}
	exec := New(db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := exec.ExecContext(ctx, stmt); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The 4000x4000 pair loop takes far longer than this bound; an
	// up-front check must never enter it.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-cancelled ExecContext took %s", elapsed)
	}
	// The same statement must still execute on a live context (the plan
	// was compiled and cached despite the aborted run).
	if _, err := exec.ExecContext(context.Background(), stmt); err != nil {
		t.Fatalf("post-cancel ExecContext: %v", err)
	}
}

// TestExecContextCancelsMidJoin cancels a running non-equi join and
// requires ExecContext to return the context error well before the join
// would have finished.
func TestExecContextCancelsMidJoin(t *testing.T) {
	db := wideDB(t, 4000)
	// Non-equi ON keeps this on the nested-loop path: 16M pair visits.
	stmt, err := sqlparse.Parse("SELECT count(*) FROM L JOIN R ON L.a > R.b")
	if err != nil {
		t.Fatal(err)
	}
	exec := New(db)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := exec.ExecContext(ctx, stmt)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ExecContext did not observe cancellation within 10s")
	}
}

// TestExecContextCancelsCorrelatedSubquery covers the subquery re-entry
// path: each outer row re-enters runProgram, whose entry check must stop
// the scan as soon as the deadline passes.
func TestExecContextCancelsCorrelatedSubquery(t *testing.T) {
	db := wideDB(t, 2000)
	stmt, err := sqlparse.Parse(
		"SELECT count(*) FROM L WHERE EXISTS (SELECT 1 FROM R WHERE R.b < L.a)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, execErr := New(db).ExecContext(ctx, stmt)
	if !errors.Is(execErr, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", execErr)
	}
}

// TestExecContextNilAndBackground pins the compatibility contract:
// ExecContext with a nil or background context behaves identically and
// never aborts.
func TestExecContextNilAndBackground(t *testing.T) {
	db := flightDB(t)
	stmt, err := sqlparse.Parse("SELECT count(*) FROM Flight")
	if err != nil {
		t.Fatal(err)
	}
	exec := New(db)
	want, err := exec.ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	for name, ctx := range map[string]context.Context{"nil": nil, "background": context.Background()} {
		got, err := exec.ExecContext(ctx, stmt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sqltypes.BagEqual(got, want) {
			t.Fatalf("%s: result diverged", name)
		}
	}
}
