package sqleval_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// TestCachedPlansFollowCopyOnWrite compiles plans on a live store, then
// pins a snapshot and writes. The first write to a pinned table swaps a
// copy of it in under the table's name, so a plan that held the relation
// it was compiled against would read the old rows through the new
// table's indexes. Each plan prepared before the write must return what
// a fresh executor returns after it: the point probe, the range probe,
// the streamed ORDER BY, the plain scan and the join, after an Insert
// and after a value-changing Mutate.
func TestCachedPlansFollowCopyOnWrite(t *testing.T) {
	queries := []struct{ sql, node string }{
		{"SELECT name FROM aircraft WHERE aid = 11", "probe aircraft.aid = 11"},
		{"SELECT name FROM aircraft WHERE distance > 9000", "range 9000 < aircraft.distance"},
		{"SELECT name FROM aircraft ORDER BY distance DESC LIMIT 3", "stream"},
		{"SELECT count(*) FROM aircraft", "scan aircraft"},
		{"SELECT T1.name, T2.flno FROM aircraft AS T1 JOIN flight AS T2 ON T1.aid = T2.aid", "[index build]"},
	}
	writes := []struct {
		name  string
		write func(*storage.Database) error
	}{
		{"insert", func(db *storage.Database) error {
			if err := db.Insert("aircraft", sqltypes.Row{sqltypes.NewInt(11), sqltypes.NewText("Concorde"), sqltypes.NewInt(9500)}); err != nil {
				return err
			}
			return db.Insert("flight", sqltypes.Row{sqltypes.NewInt(500), sqltypes.NewInt(11), sqltypes.NewText("Paris"), sqltypes.NewText("New York")})
		}},
		{"mutate", func(db *storage.Database) error {
			db.Mutate(func(table string, row sqltypes.Row) {
				switch table {
				case "aircraft":
					row[0] = sqltypes.NewInt(row[0].Int() + 1)
					row[1] = sqltypes.NewText(row[1].Text() + " (refitted)")
					row[2] = sqltypes.NewInt(row[2].Int() * 2)
				case "flight":
					row[1] = sqltypes.NewInt(row[1].Int() + 1)
				}
			})
			return nil
		}},
	}
	ctx := context.Background()
	for _, w := range writes {
		t.Run(w.name, func(t *testing.T) {
			db := datasets.FlightDB().Clone()
			ex := sqleval.New(db)
			stmts := make([]*sqlast.SelectStmt, len(queries))
			plans := make([]sqleval.Plan, len(queries))
			for i, q := range queries {
				stmt, err := sqlparse.Parse(q.sql)
				if err != nil {
					t.Fatal(err)
				}
				stmts[i] = stmt
				tree, err := ex.ExplainPlan(ctx, stmt)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(tree, q.node) {
					t.Fatalf("%q no longer plans a %q node:\n%s", q.sql, q.node, tree)
				}
				if plans[i], err = ex.Prepare(stmt); err != nil {
					t.Fatal(err)
				}
				if _, err := runPlan(ctx, plans[i]); err != nil {
					t.Fatal(err)
				}
			}
			db.Snapshot()
			if err := w.write(db); err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				want, err := sqleval.New(db).ExecContext(ctx, stmts[i])
				if err != nil {
					t.Fatal(err)
				}
				got, err := runPlan(ctx, plans[i])
				if err != nil {
					t.Errorf("cached plan for %q after the write: %v", q.sql, err)
					continue
				}
				if !identical(got, want) {
					t.Errorf("cached plan for %q after the write:\n%s\nfresh executor:\n%s", q.sql, got, want)
				}
			}
		})
	}
}

// runPlan runs a plan and copies its result out of the slab, reporting a
// panic as an error so one bad plan does not end the test binary.
func runPlan(ctx context.Context, pl sqleval.Plan) (rel *sqltypes.Relation, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	res, err := pl.Run(ctx)
	if err != nil {
		return nil, err
	}
	defer res.Release()
	out := sqltypes.NewRelation(res.Rel.Columns...)
	for _, row := range res.Rel.Rows {
		out.Append(row.Clone())
	}
	return out, nil
}
