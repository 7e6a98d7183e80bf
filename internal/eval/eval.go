// Package eval implements the paper's three evaluation metrics (§V-A1):
//
//   - EM (syntactic / exact-match accuracy): the normalized prediction
//     matches the normalized gold query, ignoring literal values;
//   - EX (execution accuracy): executing the prediction yields a result
//     bag-equal to the gold result;
//   - TS (test-suite accuracy): the prediction passes the EX check on
//     every database in a distilled test suite — seeded perturbed copies
//     of the original database that expose coincidental EX matches,
//     following Zhong et al.'s distilled-test-suite methodology.
package eval

import (
	"context"
	"math/rand"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// EM reports exact-match equivalence.
func EM(pred, gold *sqlast.SelectStmt) bool {
	return sqlnorm.EMEqual(pred, gold)
}

// EX reports execution equivalence on one database. Predictions that fail
// to execute are wrong; gold queries are trusted to execute.
func EX(db *storage.Database, pred, gold *sqlast.SelectStmt) bool {
	return EXContext(context.Background(), db, pred, gold)
}

// EXContext is EX under a context: both executions abort when ctx is
// cancelled, and the aborted prediction scores false like any other
// failed execution. Callers enforcing deadlines (the batched experiment
// drivers) must check ctx.Err() after scoring and discard the outcome as
// an error — a false produced by cancellation is not a measurement.
func EXContext(ctx context.Context, db *storage.Database, pred, gold *sqlast.SelectStmt) bool {
	if pred == nil {
		return false
	}
	ex := sqleval.New(db)
	goldRes, err := ex.Run(ctx, gold)
	if err != nil {
		return false
	}
	defer goldRes.Release()
	predRes, err := ex.Run(ctx, pred)
	if err != nil {
		return false
	}
	defer predRes.Release()
	return sqltypes.BagEqual(predRes.Rel, goldRes.Rel)
}

// Suite is a distilled test suite: the original database plus perturbed
// variants.
type Suite struct {
	DBs []*storage.Database
}

// SuiteSize is the number of perturbed variants per suite. The paper uses
// an augmented 100-fold distillation; a handful of aggressive seeded
// perturbations achieves the same discriminative role at in-memory scale.
const SuiteSize = 6

// BuildSuite derives a test suite from a database with seeded value
// perturbations: numeric columns are shifted and scaled, and a fraction of
// rows is dropped, so queries that only coincidentally matched gold on the
// original instance diverge on some variant.
func BuildSuite(db *storage.Database, seed int64) *Suite {
	s := &Suite{DBs: []*storage.Database{db}}
	for v := 0; v < SuiteSize; v++ {
		rng := rand.New(rand.NewSource(seed + int64(v)*7919))
		clone := db.Clone()
		clone.Mutate(func(table string, row sqltypes.Row) {
			for i, val := range row {
				if val.Kind() != sqltypes.KindInt {
					continue
				}
				// Leave small ints (ids, levels, flags) alone so joins and
				// categorical filters keep their semantics; jitter measures.
				if val.Int() > 40 && rng.Float64() < 0.5 {
					delta := int64(rng.Intn(9) - 4)
					row[i] = sqltypes.NewInt(val.Int() + delta)
				}
			}
		})
		dropRows(clone, rng)
		s.DBs = append(s.DBs, clone)
	}
	return s
}

// dropRows removes a small fraction of rows from every non-tiny table.
func dropRows(db *storage.Database, rng *rand.Rand) {
	for _, name := range db.Schema.TableNames() {
		rel := db.Table(name)
		if rel == nil || rel.NumRows() < 8 {
			continue
		}
		kept := rel.Rows[:0]
		for _, row := range rel.Rows {
			if rng.Float64() < 0.12 {
				continue
			}
			kept = append(kept, row)
		}
		rel.Rows = kept
	}
}

// TSContext reports test-suite equivalence: EX on every database of the
// suite. It carries the same caveat as EXContext: a cancelled ctx makes
// the remaining suite checks score false, so deadline-enforcing callers
// must check ctx.Err() before recording the verdict.
func TSContext(ctx context.Context, suite *Suite, pred, gold *sqlast.SelectStmt) bool {
	for _, db := range suite.DBs {
		if !EXContext(ctx, db, pred, gold) {
			return false
		}
	}
	return true
}

// Scores aggregates the three metrics over a run.
type Scores struct {
	EM, EX, TS float64
	N          int
}

// Counter accumulates per-example metric outcomes.
type Counter struct {
	em, ex, ts, n int
}

// Add records one example's outcomes.
func (c *Counter) Add(em, ex, ts bool) {
	c.n++
	if em {
		c.em++
	}
	if ex {
		c.ex++
	}
	if ts {
		c.ts++
	}
}

// Scores finalizes the accumulated percentages (0-100).
func (c *Counter) Scores() Scores {
	if c.n == 0 {
		return Scores{}
	}
	f := func(k int) float64 { return 100 * float64(k) / float64(c.n) }
	return Scores{EM: f(c.em), EX: f(c.ex), TS: f(c.ts), N: c.n}
}
