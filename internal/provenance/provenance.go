// Package provenance implements CycleSQL's data-tracking stage (paper
// §IV-A): given an executed SQL query and one to-explain result tuple, it
// rewrites the query with three heuristic rules so that executing the
// rewritten query returns the why-provenance of that tuple — the source
// rows that guarantee its presence in the output.
//
//   - Rule 1 (Result Transformation): the to-explain result tuple is
//     translated into WHERE equality conditions and folded back into the
//     query, pinning provenance to that tuple.
//   - Rule 2 (Projection Enhancement): every column referenced anywhere in
//     the query, plus the primary keys of the referenced tables, becomes a
//     projection column of the rewritten query.
//   - Rule 3 (Aggregation Deconstruction): aggregate functions, GROUP BY,
//     HAVING, ORDER BY and LIMIT are removed so collapsed input rows
//     become traceable again.
//
// Queries with empty results carry no provenance; Track marks them Empty
// and the explanation generator falls back to operation-level semantics.
package provenance

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// Part is the provenance of one SELECT core of the (possibly compound)
// query: the rewritten core and the provenance table it retrieved.
type Part struct {
	Core      *sqlast.SelectCore // the original core (not rewritten)
	Rewritten *sqlast.SelectStmt
	Table     *sqltypes.Relation
}

// Provenance is the data-level evidence for one query result tuple.
type Provenance struct {
	Original      *sqlast.SelectStmt
	Result        sqltypes.Row // the to-explain tuple
	ResultColumns []string
	ResultSet     *sqltypes.Relation // the full result, for summaries
	Parts         []Part
	Empty         bool // query returned no rows: no data-level provenance
}

// RowLimit caps the provenance table size so pathological rewrites cannot
// blow up the explanation stage; the paper's explanations cite at most a
// handful of representative tuples.
const RowLimit = 64

// Tracker computes provenance against one database. It keeps one executor
// alive across Track calls — so every provenance query benefits from the
// executor's compiled-plan cache — and memoizes the rewritten statement per
// (core SQL, to-explain tuple), so re-tracking the same result (the
// CycleSQL loop explains candidates repeatedly during training and
// experiments), including through a textually identical core arriving as a
// distinct AST from another beam, reuses the compiled statement instead of
// rebuilding and recompiling it. A Tracker is safe for concurrent Track
// calls: the memo maps are guarded by a mutex and the executor is safe for
// concurrent Exec, so parallel beam candidates can share one tracker.
type Tracker struct {
	db *storage.Database
	ex *sqleval.Executor
	// mu guards the two memo maps below; rewrites themselves are immutable
	// once published (the executor never mutates statements), so concurrent
	// Track calls share them freely.
	mu       sync.Mutex
	rewrites map[rewriteKey]*sqlast.SelectStmt
	// coreSQL memoizes the rendered SQL per core AST, so the common case —
	// re-tracking the same candidate object — skips the O(core) render
	// and goes straight to the rewrite lookup.
	coreSQL map[*sqlast.SelectCore]string
}

// rewriteKey identifies a provenance rewrite: the rendered SQL of the core
// (deterministic, so textually identical cores share an entry regardless
// of AST identity) plus the binary encoding of the to-explain tuple — the
// only inputs the rewriting rules vary on.
type rewriteKey struct {
	core string
	row  string
}

// maxCachedRewrites bounds the per-tracker rewrite cache.
const maxCachedRewrites = 256

// NewTracker returns a tracker over db.
func NewTracker(db *storage.Database) *Tracker {
	return &Tracker{db: db, ex: sqleval.New(db)}
}

// TrackContext computes the provenance of result row rowIdx of stmt's
// output. result must be the relation produced by executing stmt on t's
// database. For empty results, it returns a Provenance with Empty set and
// no Parts. The provenance queries the rewriting rules produce execute
// under ctx, so cancelling it aborts the tracking mid-query. Cancellation is returned as the context's error —
// never degraded to an operation-level-only Part the way ordinary rewrite
// execution failures are, since a cancelled rewrite says nothing about
// the rewrite itself.
func (t *Tracker) TrackContext(ctx context.Context, stmt *sqlast.SelectStmt, result *sqltypes.Relation, rowIdx int) (*Provenance, error) {
	p := &Provenance{Original: stmt, ResultSet: result, ResultColumns: result.Columns}
	if result.NumRows() == 0 {
		p.Empty = true
		return p, nil
	}
	if rowIdx < 0 || rowIdx >= result.NumRows() {
		return nil, fmt.Errorf("provenance: row %d out of range (%d rows)", rowIdx, result.NumRows())
	}
	p.Result = result.Rows[rowIdx]
	for _, core := range stmt.Cores {
		rw := t.rewrite(core, p.Result)
		rel, err := t.ex.ExecContext(ctx, rw)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			// A rewrite that fails to execute (for example a Rule 1
			// condition against a column dropped by the core) degrades to
			// operation-level-only provenance for this part.
			p.Parts = append(p.Parts, Part{Core: core, Rewritten: rw})
			continue
		}
		if rel.NumRows() > RowLimit {
			rel.Rows = rel.Rows[:RowLimit]
		}
		p.Parts = append(p.Parts, Part{Core: core, Rewritten: rw, Table: rel})
	}
	return p, nil
}

// coreKey must be called with t.mu held.
func (t *Tracker) coreKey(core *sqlast.SelectCore) string {
	if s, ok := t.coreSQL[core]; ok {
		return s
	}
	s := core.SQL()
	if t.coreSQL == nil {
		t.coreSQL = make(map[*sqlast.SelectCore]string)
	} else if len(t.coreSQL) >= maxCachedRewrites {
		clear(t.coreSQL)
	}
	t.coreSQL[core] = s
	return s
}

func (t *Tracker) rewrite(core *sqlast.SelectCore, result sqltypes.Row) *sqlast.SelectStmt {
	// The whole memo round-trip runs under the lock; RewriteCore is a
	// cheap AST clone next to executing the provenance query, so a finer
	// lock would buy nothing.
	t.mu.Lock()
	defer t.mu.Unlock()
	k := rewriteKey{core: t.coreKey(core), row: string(result.AppendKey(nil))}
	if rw, ok := t.rewrites[k]; ok {
		return rw
	}
	rw := RewriteCore(t.db, core, result)
	if t.rewrites == nil {
		t.rewrites = make(map[rewriteKey]*sqlast.SelectStmt)
	} else if len(t.rewrites) >= maxCachedRewrites {
		clear(t.rewrites)
	}
	t.rewrites[k] = rw
	return rw
}

// RewriteCore applies the three rewriting rules to a single SELECT core,
// producing the provenance query. It never mutates core.
func RewriteCore(db *storage.Database, core *sqlast.SelectCore, result sqltypes.Row) *sqlast.SelectStmt {
	rw := core.Clone()

	// Rule 1: pin the query to the to-explain tuple. Only plain column
	// projections translate to conditions; aggregate outputs and stars are
	// skipped per the paper.
	var pins []sqlast.Expr
	nonStar := nonStarItems(core)
	if len(nonStar) == len(result) {
		for i, it := range nonStar {
			cr, ok := it.Expr.(*sqlast.ColumnRef)
			if !ok || cr.Column == "*" {
				continue
			}
			if result[i].IsNull() {
				pins = append(pins, &sqlast.IsNullExpr{X: sqlast.CloneExpr(cr)})
			} else {
				pins = append(pins, sqlast.Eq(sqlast.CloneExpr(cr), sqlast.Lit(result[i])))
			}
		}
	}

	// Rule 3: deconstruct aggregation so collapsed rows are visible again.
	rw.GroupBy = nil
	rw.Having = nil
	rw.OrderBy = nil
	rw.Limit = nil
	rw.Offset = nil
	rw.Distinct = false

	// Rule 2: project every referenced column plus the primary keys of the
	// referenced tables.
	rw.Items = rule2Items(db, core)

	rw.Where = sqlast.And(rw.Where, sqlast.FromAnd(pins))
	return sqlast.Wrap(rw)
}

// nonStarItems returns the core's projection items when none is a star;
// star projections make positional alignment with the result ambiguous.
func nonStarItems(core *sqlast.SelectCore) []sqlast.SelectItem {
	for _, it := range core.Items {
		if it.Star {
			return nil
		}
	}
	return core.Items
}

// rule2Items builds the enhanced projection list: referenced columns in
// query order (SELECT, WHERE, ON, GROUP BY, HAVING, ORDER BY), then the
// primary keys of every referenced base table.
func rule2Items(db *storage.Database, core *sqlast.SelectCore) []sqlast.SelectItem {
	var items []sqlast.SelectItem
	seen := map[string]bool{}
	add := func(cr *sqlast.ColumnRef) {
		if cr == nil || cr.Column == "*" {
			return
		}
		key := strings.ToLower(cr.Table) + "." + strings.ToLower(cr.Column)
		if seen[key] {
			return
		}
		seen[key] = true
		cp := *cr
		items = append(items, sqlast.SelectItem{Expr: &cp})
	}
	for _, cr := range core.ColumnRefs() {
		add(cr)
	}
	// Primary keys of referenced tables, qualified by the effective name
	// so aliased self-joins stay unambiguous.
	for _, ref := range core.Tables() {
		if ref.Sub != nil {
			continue
		}
		t := db.Schema.Table(ref.Name)
		if t == nil {
			continue
		}
		for _, pk := range t.PrimaryKeys() {
			add(&sqlast.ColumnRef{Table: ref.Effective(), Column: pk})
		}
	}
	if len(items) == 0 {
		// A query referencing no columns at all (SELECT count(*) FROM t)
		// still needs a projection; fall back to star.
		items = append(items, sqlast.SelectItem{Star: true})
	}
	return items
}

// FilterValues extracts, for presentation, the (column, op, value) triples
// of the core's WHERE conjuncts that compare a column to a literal.
type FilterValue struct {
	Column *sqlast.ColumnRef
	Op     string
	Value  sqltypes.Value
}

// Filters lists the literal comparisons in the core's WHERE clause.
func Filters(core *sqlast.SelectCore) []FilterValue {
	var out []FilterValue
	for _, c := range sqlast.Conjuncts(core.Where) {
		switch x := c.(type) {
		case *sqlast.Binary:
			cr, okL := x.L.(*sqlast.ColumnRef)
			lit, okR := x.R.(*sqlast.Literal)
			if okL && okR {
				out = append(out, FilterValue{Column: cr, Op: x.Op, Value: lit.Value})
			}
		case *sqlast.LikeExpr:
			cr, okL := x.X.(*sqlast.ColumnRef)
			lit, okR := x.Pattern.(*sqlast.Literal)
			if okL && okR {
				op := "LIKE"
				if x.Not {
					op = "NOT LIKE"
				}
				out = append(out, FilterValue{Column: cr, Op: op, Value: lit.Value})
			}
		}
	}
	return out
}
