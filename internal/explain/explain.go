// Package explain implements CycleSQL's explanation-generation stage
// (paper §IV-C, Algorithm 1). Given the enriched provenance of a query
// result, it synthesizes a data-grounded natural-language explanation:
//
//  1. GENERATE-SUMMARY — a brief summary of the result set (column/row
//     counts, aggregation types, surface filters);
//  2. BUILD-GRAPH — the provenance graph with semantics labels;
//  3. GENERATE-PHRASE — an NL phrase per provenance element, grounding
//     operation-level semantics in the concrete data values;
//  4. COMPOSE-PHRASE — concatenation with descriptive connectives.
//
// The generated text is intentionally mechanical; a Polisher can refine it
// for readability (the paper uses a few-shot prompted LLM; this repo ships
// a rule-based polisher, see ARCHITECTURE.md "Substitutions").
//
// Every stage appends into one pooled buffer, in the order the composed
// text reads, so an explanation costs a handful of allocations: its
// results.
package explain

import (
	"context"
	"strconv"
	"strings"
	"sync"

	"cyclesql/internal/annotate"
	"cyclesql/internal/provenance"
	"cyclesql/internal/provgraph"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
	"cyclesql/internal/textproc"
)

// Polisher refines the mechanical explanation for readability.
type Polisher interface {
	Polish(text string) string
}

// Explanation is the generated NL explanation of one query result tuple.
type Explanation struct {
	Summary string   // the result-set summary (step s0 of Algorithm 1)
	Steps   []string // intermediate reasoning steps (one per part)
	Text    string   // composed full text
	Prov    *provenance.Provenance
}

// Explainer generates explanations against one database; build it with
// New. It is safe for concurrent use once Polish is set: the in-flight
// provenance is passed explicitly through the generation call chain (no
// per-explanation state lives on the struct), and the shared tracker
// guards its own memoization — so the CycleSQL loop can explain beam
// candidates in parallel through one cached explainer. Set Polish before
// the first Explain and leave it unchanged afterwards.
type Explainer struct {
	Polish Polisher // optional; set before first use

	db *storage.Database
	// tracker persists across Explain calls so repeated explanations
	// against the same database reuse compiled provenance statements —
	// its rewrite cache keys on rendered core SQL and its executor's plan
	// cache on canonical SQL, so textually identical candidates share
	// work even when every beam hands over a fresh AST. Callers that
	// alternate databases cache whole explainers instead (see
	// core.DataGrounded).
	tracker *provenance.Tracker
}

// New returns an Explainer over db with no polisher.
func New(db *storage.Database) *Explainer {
	return &Explainer{db: db, tracker: provenance.NewTracker(db)}
}

// ExplainContext produces the explanation for row rowIdx of result, which
// must be the output of executing stmt against the explainer's database.
// For empty results the explanation is generated from operation-level
// semantics alone. The provenance queries the tracker executes run under
// ctx, so the CycleSQL loop can abort an in-flight speculative explanation
// once an earlier candidate validates. Phrase generation itself is pure
// in-memory string work and finishes without further checks once tracking
// completes.
func (e *Explainer) ExplainContext(ctx context.Context, stmt *sqlast.SelectStmt, result *sqltypes.Relation, rowIdx int) (*Explanation, error) {
	prov, err := e.tracker.TrackContext(ctx, stmt, result, rowIdx)
	if err != nil {
		return nil, err
	}
	return e.FromProvenance(prov)
}

// composer is the scratch of one explanation. buf holds the raw composed
// text: the summary, then each step preceded by a space and its set-
// operation connective; steps records each step's span in buf. The rest
// is per-part working storage reused across parts and calls.
type composer struct {
	db      *storage.Database
	prov    *provenance.Provenance
	buf     []byte
	steps   [][2]int
	tmp     []byte
	keys    []byte // the summary's filter dedup keys, back to back
	keyEnds []int
	anns    []annotate.Annotation
	graph   provgraph.Graph
	tables  []string
	filters []provenance.FilterValue
}

var composers = sync.Pool{New: func() any { return new(composer) }}

// FromProvenance generates the explanation from already-tracked provenance.
// The provenance is threaded explicitly through the generation chain, so
// concurrent calls on one Explainer never observe each other's tuples.
func (e *Explainer) FromProvenance(prov *provenance.Provenance) (*Explanation, error) {
	c := composers.Get().(*composer)
	c.db, c.prov = e.db, prov
	c.buf, c.steps = c.buf[:0], c.steps[:0]
	c.summary()
	summaryEnd := len(c.buf)
	if prov.Empty {
		// Operation-level semantics only (paper §IV-A, empty results).
		for i, core := range prov.Original.Cores {
			c.beginStep(i)
			c.operationStep(core)
			c.endStep()
		}
	} else {
		for i, part := range prov.Parts {
			c.anns = annotate.Append(c.anns[:0], part.Core)
			c.graph.Build(part, c.anns)
			c.beginStep(i)
			c.phraseStep(part)
			c.endStep()
		}
	}

	// COMPOSE-PHRASE normalizes whitespace, which mostly leaves the raw
	// text as it is; the summary and the steps share the raw text's
	// storage either way.
	raw := string(c.buf)
	out := &Explanation{Prov: prov, Text: textproc.JoinFields(raw), Summary: raw[:summaryEnd]}
	if len(c.steps) > 0 {
		out.Steps = make([]string, len(c.steps))
		for i, sp := range c.steps {
			out.Steps[i] = raw[sp[0]:sp[1]]
		}
	}
	c.release()
	if e.Polish != nil {
		out.Text = e.Polish.Polish(out.Text)
	}
	return out, nil
}

// release drops the composer's references into the explanation's inputs
// and returns it to the pool.
func (c *composer) release() {
	c.db, c.prov = nil, nil
	clear(c.anns)
	clear(c.tables)
	clear(c.filters)
	c.graph = provgraph.Graph{Anchor: c.graph.Anchor[:0]}
	composers.Put(c)
}

// beginStep opens step i: COMPOSE-PHRASE stitches the steps with a space
// and, between the parts of a compound query, the set operation's
// connective.
func (c *composer) beginStep(i int) {
	c.buf = append(c.buf, ' ')
	if ops := c.prov.Original.Ops; i > 0 && i-1 < len(ops) {
		switch ops[i-1] {
		case sqlast.Intersect:
			c.buf = append(c.buf, "And also: "...)
		case sqlast.Except:
			c.buf = append(c.buf, "Excluding: "...)
		default:
			c.buf = append(c.buf, "Or: "...)
		}
	}
	c.steps = append(c.steps, [2]int{len(c.buf), 0})
}

func (c *composer) endStep() { c.steps[len(c.steps)-1][1] = len(c.buf) }

// summary implements GENERATE-SUMMARY: result-set shape plus the query's
// surface filters.
func (c *composer) summary() {
	r := c.prov.ResultSet
	b := append(c.buf, "The query returns a result set with "...)
	aggs := c.aggregateTypes()
	b = appendPlural(b, len(r.Columns), "column")
	switch {
	case aggs == len(r.Columns) && aggs > 0:
		b = append(b, " of aggregation type ("...)
		b = append(b, c.tmp...)
		b = append(b, ')')
	case aggs > 0:
		b = append(b, " (including aggregation type "...)
		b = append(b, c.tmp...)
		b = append(b, ')')
	default:
		b = append(b, " ("...)
		for i, col := range r.Columns {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendBareColumn(b, col)
		}
		b = append(b, ')')
	}
	b = append(b, " and "...)
	b = appendPlural(b, r.NumRows(), "row")
	c.buf = b
	c.appendSurfaceFilters()
	c.buf = append(c.buf, '.')
}

// aggregateTypes renders into c.tmp the aggregate function names of the
// statement's first core, in projection order, and returns their count.
func (c *composer) aggregateTypes() int {
	n := 0
	c.tmp = c.tmp[:0]
	for _, it := range c.prov.Original.Cores[0].Items {
		sqlast.WalkExpr(it.Expr, func(e sqlast.Expr) bool {
			if f, ok := e.(*sqlast.FuncCall); ok && f.IsAggregate() {
				if n > 0 {
					c.tmp = append(c.tmp, ", "...)
				}
				c.tmp = append(c.tmp, annotate.FuncName(f)...)
				n++
			}
			return true
		})
	}
	return n
}

// appendSurfaceFilters appends ", filtered by ..." over the literal
// filters of every core, and the HAVING thresholds (paper Q5: "filtered by
// country language greater than 2"), each distinct filter once.
func (c *composer) appendSurfaceFilters() {
	c.keys, c.keyEnds = c.keys[:0], c.keyEnds[:0]
	n := 0
	for _, core := range c.prov.Original.Cores {
		c.filters = provenance.AppendFilters(c.filters[:0], core)
		for _, f := range c.filters {
			n = c.appendSurfaceFilter(n, f.Column.Column, f.Op, f.Value)
		}
		for _, h := range sqlast.Conjuncts(core.Having) {
			b, ok := h.(*sqlast.Binary)
			if !ok {
				continue
			}
			f, okL := b.L.(*sqlast.FuncCall)
			lit, okR := b.R.(*sqlast.Literal)
			if okL && f.IsAggregate() && okR {
				arg := annotate.FuncName(f)
				if !f.Star && len(f.Args) == 1 {
					arg = sqlast.ExprSQL(f.Args[0])
				}
				n = c.appendSurfaceFilter(n, arg, b.Op, lit.Value)
			}
		}
	}
}

// appendSurfaceFilter appends the n-th surface filter unless an identical
// one (same column, operator and rendered value) came earlier, and
// returns the new count.
func (c *composer) appendSurfaceFilter(n int, column, op string, v sqltypes.Value) int {
	start := len(c.keys)
	c.keys = append(c.keys, column...)
	c.keys = append(c.keys, op...)
	c.keys = v.AppendString(c.keys)
	key, from := c.keys[start:], 0
	for _, end := range c.keyEnds {
		if string(c.keys[from:end]) == string(key) {
			c.keys = c.keys[:start]
			return n
		}
		from = end
	}
	c.keyEnds = append(c.keyEnds, len(c.keys))
	if n == 0 {
		c.buf = append(c.buf, ", filtered by "...)
	} else {
		c.buf = append(c.buf, " and "...)
	}
	c.buf = appendBareColumn(c.buf, column)
	c.buf = append(c.buf, ' ')
	c.buf = append(c.buf, opPhrase(op)...)
	c.buf = append(c.buf, ' ')
	c.buf = v.AppendString(c.buf)
	return n + 1
}

// phraseStep implements GENERATE-PHRASE + the per-part portion of
// COMPOSE-PHRASE for one provenance part, traversing the provenance graph
// in c.graph and verbalizing each labeled element.
func (c *composer) phraseStep(part provenance.Part) {
	g := &c.graph
	b := append(c.buf, "For "...)
	c.tables = appendTableNames(c.tables[:0], part.Core)
	subject := len(b)
	b, _ = provgraph.AppendJoin(b, c.db.Schema, c.tables)
	if len(b) == subject {
		b = append(b, "the rows"...)
	}

	// Filter-like labels on column nodes, grounded in provenance values.
	clauses := 0
	for col := range g.Columns {
		for i, lab := range g.Labels {
			if g.Anchor[i] != col {
				continue
			}
			mark := len(b)
			b = append(b, ", "...)
			if next := c.groundedColumnPhrase(b, col, lab); len(next) > len(b) {
				b = next
				clauses++
			} else {
				b = b[:mark]
			}
		}
	}
	// Table-level labels: aggregates, HAVING, ORDER/LIMIT, EXISTS. Then
	// aggregate labels anchored on a concrete column, which still
	// summarize the table (count(T2.language) counts rows of the group).
	tails := 0
	for col := provgraph.TableNode; col < len(g.Columns); col++ {
		for i, lab := range g.Labels {
			if g.Anchor[i] != col || col != provgraph.TableNode && lab.Kind != annotate.KindAggregate {
				continue
			}
			mark := len(b)
			if tails == 0 {
				b = append(b, ", "...)
			} else {
				b = append(b, ", and "...)
			}
			if next := c.tablePhrase(b, lab, part); len(next) > len(b) {
				b = next
				tails++
			} else {
				b = b[:mark]
			}
		}
	}
	if clauses == 0 && tails == 0 {
		// Pure projection query: ground the representative row.
		b = appendRepresentativeRow(b, part)
	}
	c.buf = append(b, '.')
}

// groundedColumnPhrase appends the verbalization of one label on column
// node col to dst, using the column's provenance value so the explanation
// reflects the data instance rather than the query surface alone. It
// appends nothing for labels that have no column phrase.
func (c *composer) groundedColumnPhrase(dst []byte, col int, lab annotate.Annotation) []byte {
	g := &c.graph
	val, hasVal := g.ValueOf(col)
	colName := g.Columns[col]
	switch lab.Kind {
	case annotate.KindFilter:
		op, want := lab.Op, lab.Value
		switch {
		case lab.Subquery:
			dst = appendThe(dst, colName, " is ")
		case hasVal && string(c.renderTmp(val)) != want:
			// Data value differs from the filter constant (inequalities):
			// surface both, as in the paper's Estonia example.
			dst = appendThe(dst, colName, " is ")
			dst = val.AppendString(dst)
			dst = append(dst, ", "...)
		case op == "=":
			dst = append(dst, "with "...)
			dst = appendBareColumn(dst, colName)
			dst = append(dst, ' ')
			return append(dst, want...)
		default:
			dst = appendThe(dst, colName, " is ")
		}
		dst = append(dst, opPhrase(op)...)
		dst = append(dst, ' ')
		return append(dst, want...)
	case annotate.KindMembership:
		dst = append(dst, "whose "...)
		dst = appendBareColumn(dst, colName)
		if lab.Not {
			dst = append(dst, " is not among "...)
		} else {
			dst = append(dst, " is among "...)
		}
		return append(dst, lab.Value...)
	case annotate.KindPattern:
		verb := " matches the pattern "
		if lab.Not {
			verb = " does not match the pattern "
		}
		dst = appendThe(dst, colName, "")
		if hasVal {
			dst = append(dst, ' ')
			dst = val.AppendString(dst)
		}
		dst = append(dst, verb...)
		return append(dst, strings.Trim(lab.Value, "'")...)
	case annotate.KindRange:
		dst = appendThe(dst, colName, " is between ")
		dst = append(dst, lab.Lo...)
		dst = append(dst, " and "...)
		return append(dst, lab.Hi...)
	case annotate.KindNullCheck:
		if lab.Not {
			return appendThe(dst, colName, " is present")
		}
		return appendThe(dst, colName, " is missing")
	case annotate.KindGroup:
		dst = append(dst, "grouped by "...)
		dst = appendBareColumn(dst, colName)
		if hasVal {
			dst = append(dst, ", here "...)
			dst = appendBareColumn(dst, colName)
			dst = append(dst, ' ')
			dst = val.AppendString(dst)
		}
		return dst
	case annotate.KindProjection:
		if hasVal {
			dst = appendThe(dst, colName, " is ")
			return val.AppendString(dst)
		}
	}
	return dst
}

// tablePhrase appends the verbalization of one table-level label to dst,
// or nothing for labels without one.
func (c *composer) tablePhrase(dst []byte, lab annotate.Annotation, part provenance.Part) []byte {
	switch lab.Kind {
	case annotate.KindAggregate:
		arg := lab.Arg
		switch lab.Func {
		case "count":
			dst = append(dst, "there are "...)
			dst = c.appendAggregateResult(dst, lab, part)
			if lab.Distinct {
				dst = append(dst, " distinct"...)
			}
			dst = append(dst, ' ')
			noun := len(dst)
			if arg != "*" && arg != "" && !isIDColumn(arg) {
				dst = appendBareColumn(dst, arg)
			} else {
				dst = appendEntity(dst, c.db, part.Core)
			}
			dst = pluralize(dst, noun)
			return append(dst, " in total"...)
		case "sum":
			dst = append(dst, "the total "...)
		case "avg":
			dst = append(dst, "the average "...)
		case "min":
			dst = append(dst, "the smallest "...)
		case "max":
			dst = append(dst, "the largest "...)
		default:
			return dst
		}
		dst = appendBareColumn(dst, arg)
		dst = append(dst, " is "...)
		return c.appendAggregateResult(dst, lab, part)
	case annotate.KindHaving:
		dst = append(dst, "keeping only groups where the "...)
		dst = append(dst, lab.Func...)
		dst = append(dst, " of "...)
		noun := len(dst)
		dst = pluralize(appendBareColumn(dst, lab.Arg), noun)
		dst = append(dst, " is "...)
		dst = append(dst, opPhrase(lab.Op)...)
		dst = append(dst, ' ')
		return append(dst, lab.Value...)
	case annotate.KindOrder:
		if lab.Limit != "" {
			dst = append(dst, "ranked by "...)
		} else {
			dst = append(dst, "ordered by "...)
		}
		dst = appendBareColumn(dst, lab.Key)
		if lab.Desc {
			dst = append(dst, " descending"...)
		} else {
			dst = append(dst, " ascending"...)
		}
		if lab.Limit != "" {
			dst = append(dst, " taking the top "...)
			dst = append(dst, lab.Limit...)
		}
		return dst
	case annotate.KindExists:
		if lab.Not {
			dst = append(dst, "with no matching "...)
		} else {
			dst = append(dst, "with some matching "...)
		}
		return append(dst, lab.Value...)
	case annotate.KindDistinct:
		return append(dst, "with duplicate entries removed"...)
	case annotate.KindFilter, annotate.KindMembership, annotate.KindPattern:
		// A filter that could not anchor to a provenance column (for
		// example the rewrite failed): verbalize from the query surface.
		// The operator defaults to equality, and a pattern's text shows
		// only in its anchored phrase.
		op, value := lab.Op, lab.Value
		if op == "" {
			op = "="
		}
		if lab.Kind == annotate.KindPattern {
			value = ""
		}
		dst = append(dst, "where "...)
		dst = appendBareColumn(dst, lab.Column)
		dst = append(dst, " is "...)
		dst = append(dst, opPhrase(op)...)
		dst = append(dst, ' ')
		return append(dst, value...)
	}
	// Join labels add nothing: the subject phrase carries the join.
	return dst
}

// appendAggregateResult appends the concrete value of an aggregate label:
// the matching column of the to-explain result tuple when identifiable,
// else the recomputed aggregate over the provenance rows.
func (c *composer) appendAggregateResult(dst []byte, lab annotate.Annotation, part provenance.Part) []byte {
	if v, ok := c.lookupResultAggregate(part.Core, lab.Func, lab.Arg); ok {
		if next := v.AppendString(dst); len(next) > len(dst) {
			return next
		}
	}
	if part.Table != nil && lab.Func == "count" {
		return strconv.AppendInt(dst, int64(part.Table.NumRows()), 10)
	}
	return append(dst, "the computed value"...)
}

// lookupResultAggregate aligns an aggregate label with the to-explain
// result tuple the provenance carries, returning the value of the first
// matching projection column.
func (c *composer) lookupResultAggregate(core *sqlast.SelectCore, fn, arg string) (sqltypes.Value, bool) {
	result := c.prov.Result
	for i, it := range core.Items {
		f, ok := it.Expr.(*sqlast.FuncCall)
		if !ok || !f.IsAggregate() || !strings.EqualFold(f.Name, fn) || i >= len(result) {
			continue
		}
		if arg == "" {
			return result[i], true
		}
		c.tmp = append(c.tmp[:0], '*')
		if !f.Star && len(f.Args) == 1 {
			c.tmp = sqlast.AppendExpr(c.tmp[:0], f.Args[0])
		}
		if string(c.tmp) == arg {
			return result[i], true
		}
	}
	return sqltypes.Value{}, false
}

// operationStep appends the verbalization of a core from its query
// surface alone; used for empty-result queries that carry no data-level
// provenance.
func (c *composer) operationStep(core *sqlast.SelectCore) {
	b := append(c.buf, "No data matches: the query looks for "...)
	b = appendItems(b, core)
	c.tables = appendTableNames(c.tables[:0], core)
	of := len(b)
	b = append(b, " of "...)
	if next, _ := provgraph.AppendJoin(b, c.db.Schema, c.tables); len(next) > len(b) {
		b = next
	} else {
		b = b[:of]
	}
	c.filters = provenance.AppendFilters(c.filters[:0], core)
	for i, f := range c.filters {
		if i == 0 {
			b = append(b, " where "...)
		} else {
			b = append(b, " and "...)
		}
		b = appendBareColumn(b, f.Column.Column)
		b = append(b, " is "...)
		b = append(b, opPhrase(f.Op)...)
		b = append(b, ' ')
		b = f.Value.AppendString(b)
	}
	c.buf = append(b, ", and no such rows exist."...)
}

// renderTmp renders v into c.tmp, for comparison.
func (c *composer) renderTmp(v sqltypes.Value) []byte {
	c.tmp = v.AppendString(c.tmp[:0])
	return c.tmp
}
