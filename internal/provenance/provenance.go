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
// After Rule 3 the rewrite gets LIMIT RowLimit, so the executor stops
// once it has the provenance table's first RowLimit rows. The rewrite has
// no ORDER BY, DISTINCT or GROUP BY, so those are exactly the rows a run
// without the cap would list first.
//
// Queries with empty results carry no provenance; Track marks them Empty
// and the explanation generator falls back to operation-level semantics.
package provenance

import (
	"context"
	"encoding/binary"
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
	// owned is the execution Table came from; Provenance.Release hands it
	// back.
	owned sqleval.Result
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

// Release hands the storage of every part's provenance table back to the
// executor that computed it and clears the tables. ResultSet and Result
// belong to the caller and are left as they are. A Provenance that is
// never released is simply collected; one that is released must not be
// explained again.
func (p *Provenance) Release() {
	for i := range p.Parts {
		part := &p.Parts[i]
		part.owned.Release()
		part.Table = nil
	}
}

// RowLimit caps the provenance table size so pathological rewrites cannot
// blow up the explanation stage; the paper's explanations cite at most a
// handful of representative tuples. Every rewrite carries it as its LIMIT.
const RowLimit = 64

// Tracker computes provenance against one database. It keeps one executor
// alive across Track calls — so every provenance query benefits from the
// executor's compiled-plan cache — and memoizes the rewritten statement
// and its compiled plan per (core SQL, to-explain tuple), so re-tracking
// the same result (the CycleSQL loop explains candidates repeatedly during
// training and experiments), including through a textually identical core
// arriving as a distinct AST from another beam, runs the held plan
// instead of rebuilding the rewrite and looking its plan up again. A
// Tracker is safe for concurrent Track calls: the memo is guarded by a
// mutex and held plans are immutable, so parallel beam candidates can
// share one tracker.
type Tracker struct {
	db *storage.Database
	ex *sqleval.Executor
	// mu guards the memo and its key scratch; memoized rewrites and plans
	// are immutable once published, so concurrent Track calls share them
	// freely.
	mu       sync.Mutex
	rewrites map[string]rewrite
	// key is the reused buffer each lookup renders its memo key into.
	key []byte
}

// rewrite is one memoized provenance rewrite: the statement, its plan,
// and the error compiling it returned, if any.
type rewrite struct {
	stmt *sqlast.SelectStmt
	plan sqleval.Plan
	err  error
}

// appendRewriteKey appends the memo key of a provenance rewrite: the
// rendered SQL of the core (deterministic, so textually identical cores
// share an entry regardless of AST identity), the binary encoding of the
// to-explain tuple — the only inputs the rewriting rules vary on — and
// the SQL's length, which keeps the concatenation unambiguous.
func appendRewriteKey(dst []byte, core *sqlast.SelectCore, result sqltypes.Row) []byte {
	start := len(dst)
	dst = core.AppendSQL(dst)
	sqlLen := len(dst) - start
	dst = result.AppendKey(dst)
	return binary.LittleEndian.AppendUint64(dst, uint64(sqlLen))
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
// under ctx, so cancelling it aborts the tracking mid-query. The part
// tables are owned results; Release hands them back. Cancellation is
// returned as the context's error — never degraded to an
// operation-level-only Part the way ordinary rewrite execution failures
// are, since a cancelled rewrite says nothing about the rewrite itself —
// after the tables of the parts already executed are released.
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
	last := len(stmt.Cores) - 1
	for i, core := range stmt.Cores {
		src := core
		if i > 0 && i == last && len(core.OrderBy) > 0 {
			// The parser attaches a compound's ORDER BY to its last core,
			// but it orders the whole compound, and a term may name an
			// alias of the first core: Rule 2 must not project it here.
			c := *core
			c.OrderBy = nil
			src = &c
		}
		rw := t.rewrite(src, p.Result)
		err := rw.err
		var res sqleval.Result
		if err == nil {
			res, err = rw.plan.Run(ctx)
		}
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				p.Release()
				return nil, ctxErr
			}
			// A rewrite that fails to compile or execute (for example a
			// Rule 1 condition against a column dropped by the core)
			// degrades to operation-level-only provenance for this part.
			p.Parts = append(p.Parts, Part{Core: core, Rewritten: rw.stmt})
			continue
		}
		p.Parts = append(p.Parts, Part{Core: core, Rewritten: rw.stmt, Table: res.Rel, owned: res})
	}
	return p, nil
}

// rewrite returns the memoized rewrite of core for result, deriving and
// compiling it on a miss. Both run outside the lock, so parallel
// candidates do not queue behind a compile; concurrent misses on one key
// build interchangeable rewrites, and the last store wins.
func (t *Tracker) rewrite(core *sqlast.SelectCore, result sqltypes.Row) rewrite {
	t.mu.Lock()
	t.key = appendRewriteKey(t.key[:0], core, result)
	if rw, ok := t.rewrites[string(t.key)]; ok {
		t.mu.Unlock()
		return rw
	}
	key := string(t.key)
	t.mu.Unlock()
	rw := rewrite{stmt: RewriteCore(t.db, core, result)}
	rw.plan, rw.err = t.ex.Prepare(rw.stmt)
	t.mu.Lock()
	if t.rewrites == nil {
		t.rewrites = make(map[string]rewrite)
	} else if len(t.rewrites) >= maxCachedRewrites {
		clear(t.rewrites)
	}
	t.rewrites[key] = rw
	t.mu.Unlock()
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
	// The cap then replaces the core's own LIMIT.
	rw.GroupBy = nil
	rw.Having = nil
	rw.OrderBy = nil
	rw.Offset = nil
	rw.Distinct = false
	limit := int64(RowLimit)
	rw.Limit = &limit

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
// primary keys of every referenced base table. An ORDER BY term that
// names an output alias is no column: the executor sorts it by the
// projected value, and Rule 3 drops ORDER BY, so it is skipped.
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
		if !orderByAlias(core, cr) {
			add(cr)
		}
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

// orderByAlias reports whether cr is an ORDER BY term of core that names
// one of its item aliases, the reference the executor resolves to the
// projected item.
func orderByAlias(core *sqlast.SelectCore, cr *sqlast.ColumnRef) bool {
	if cr.Table != "" {
		return false
	}
	for _, o := range core.OrderBy {
		if o.Expr != sqlast.Expr(cr) {
			continue
		}
		for _, it := range core.Items {
			if it.Alias != "" && strings.EqualFold(it.Alias, cr.Column) {
				return true
			}
		}
	}
	return false
}

// FilterValues extracts, for presentation, the (column, op, value) triples
// of the core's WHERE conjuncts that compare a column to a literal.
type FilterValue struct {
	Column *sqlast.ColumnRef
	Op     string
	Value  sqltypes.Value
}

// Filters lists the literal comparisons in the core's WHERE clause.
func Filters(core *sqlast.SelectCore) []FilterValue { return AppendFilters(nil, core) }

// AppendFilters appends Filters(core) to dst.
func AppendFilters(dst []FilterValue, core *sqlast.SelectCore) []FilterValue {
	return appendFilters(dst, core.Where)
}

// appendFilters visits the top-level AND operands of e left to right.
func appendFilters(dst []FilterValue, e sqlast.Expr) []FilterValue {
	switch x := e.(type) {
	case *sqlast.Binary:
		if x.Op == "AND" {
			return appendFilters(appendFilters(dst, x.L), x.R)
		}
		cr, okL := x.L.(*sqlast.ColumnRef)
		lit, okR := x.R.(*sqlast.Literal)
		if okL && okR {
			dst = append(dst, FilterValue{Column: cr, Op: x.Op, Value: lit.Value})
		}
	case *sqlast.LikeExpr:
		cr, okL := x.X.(*sqlast.ColumnRef)
		lit, okR := x.Pattern.(*sqlast.Literal)
		if okL && okR {
			op := "LIKE"
			if x.Not {
				op = "NOT LIKE"
			}
			dst = append(dst, FilterValue{Column: cr, Op: op, Value: lit.Value})
		}
	}
	return dst
}
