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
// a rule-based polisher, see DESIGN.md "Substitutions").
package explain

import (
	"context"
	"fmt"
	"strings"

	"cyclesql/internal/annotate"
	"cyclesql/internal/provenance"
	"cyclesql/internal/provgraph"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
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

// FromProvenance generates the explanation from already-tracked provenance.
// The provenance is threaded explicitly through the generation chain, so
// concurrent calls on one Explainer never observe each other's tuples.
func (e *Explainer) FromProvenance(prov *provenance.Provenance) (*Explanation, error) {
	ann := annotate.Annotate(prov)
	out := &Explanation{Prov: prov}
	out.Summary = e.summary(prov)
	if prov.Empty {
		// Operation-level semantics only (paper §IV-A, empty results).
		for _, core := range prov.Original.Cores {
			out.Steps = append(out.Steps, e.operationStep(core))
		}
	} else {
		for i, part := range prov.Parts {
			g := provgraph.Build(part, ann.Parts[i])
			out.Steps = append(out.Steps, e.phraseStep(prov, part, g))
		}
	}
	out.Text = e.compose(prov, out.Summary, out.Steps)
	if e.Polish != nil {
		out.Text = e.Polish.Polish(out.Text)
	}
	return out, nil
}

// summary implements GENERATE-SUMMARY: result-set shape plus the query's
// surface filters.
func (e *Explainer) summary(prov *provenance.Provenance) string {
	r := prov.ResultSet
	var b strings.Builder
	b.WriteString("The query returns a result set with ")
	aggs := aggregateTypes(prov.Original)
	switch {
	case len(aggs) == len(r.Columns) && len(aggs) > 0:
		fmt.Fprintf(&b, "%s of aggregation type (%s)", plural(len(r.Columns), "column"), strings.Join(aggs, ", "))
	case len(aggs) > 0:
		fmt.Fprintf(&b, "%s (including aggregation type %s)", plural(len(r.Columns), "column"), strings.Join(aggs, ", "))
	default:
		fmt.Fprintf(&b, "%s (%s)", plural(len(r.Columns), "column"), strings.Join(bareColumns(r.Columns), ", "))
	}
	fmt.Fprintf(&b, " and %s", plural(r.NumRows(), "row"))
	if fs := allFilters(prov.Original); len(fs) != 0 {
		b.WriteString(", filtered by ")
		for i, f := range fs {
			if i > 0 {
				b.WriteString(" and ")
			}
			fmt.Fprintf(&b, "%s %s %s", bareColumn(f.Column), opPhrase(f.Op), f.Value.String())
		}
	}
	b.WriteString(".")
	return b.String()
}

// phraseStep implements GENERATE-PHRASE + the per-part portion of
// COMPOSE-PHRASE for one provenance part, traversing the provenance graph
// and verbalizing each labeled element. prov is the in-flight provenance
// the part belongs to; it rides along so aggregate phrases can ground
// themselves in the to-explain result tuple.
func (e *Explainer) phraseStep(prov *provenance.Provenance, part provenance.Part, g *provgraph.Graph) string {
	core := part.Core
	var tableNames []string
	for _, t := range core.Tables() {
		if t.Name != "" {
			tableNames = append(tableNames, t.Name)
		}
	}
	join := provgraph.DiscoverJoin(e.db.Schema, tableNames)
	subject := join.Phrase
	if subject == "" {
		subject = "the rows"
	}

	var clauses []string

	// Filter-like labels on column nodes, grounded in provenance values.
	for _, col := range g.Columns() {
		for _, lab := range col.Labels {
			if phrase := e.groundedColumnPhrase(col, lab, g); phrase != "" {
				clauses = append(clauses, phrase)
			}
		}
	}
	// Table-level labels: aggregates, HAVING, ORDER/LIMIT, EXISTS.
	tableNode := g.Nodes[g.Table]
	entity := headEntity(e.db, core)
	var tails []string
	for _, lab := range tableNode.Labels {
		if phrase := e.tablePhrase(prov, lab, part, entity); phrase != "" {
			tails = append(tails, phrase)
		}
	}
	// Aggregate labels anchored on a concrete column still summarize the
	// table (count(T2.language) counts rows of the group).
	for _, col := range g.Columns() {
		for _, lab := range col.Labels {
			if lab.Kind == annotate.KindAggregate {
				if phrase := e.tablePhrase(prov, lab, part, entity); phrase != "" {
					tails = append(tails, phrase)
				}
			}
		}
	}

	var b strings.Builder
	b.WriteString("For ")
	b.WriteString(subject)
	if len(clauses) > 0 {
		b.WriteString(", ")
		b.WriteString(strings.Join(clauses, ", "))
	}
	if len(tails) > 0 {
		b.WriteString(", ")
		b.WriteString(strings.Join(tails, ", and "))
	}
	if len(clauses) == 0 && len(tails) == 0 {
		// Pure projection query: ground the representative row.
		if row := representativeRow(part); row != "" {
			b.WriteString(", ")
			b.WriteString(row)
		}
	}
	b.WriteString(".")
	return b.String()
}

// groundedColumnPhrase verbalizes one column-anchored label using the
// column's provenance value, so the explanation reflects the data instance
// rather than the query surface alone.
func (e *Explainer) groundedColumnPhrase(col *provgraph.Node, lab annotate.Annotation, g *provgraph.Graph) string {
	val, hasVal := g.ValueOf(col.ID)
	colNL := bareColumn(col.Label)
	switch lab.Kind {
	case annotate.KindFilter:
		op := lab.Detail["op"]
		want := lab.Detail["value"]
		if lab.Detail["subquery"] == "true" {
			return fmt.Sprintf("the %s is %s %s", colNL, opPhrase(op), want)
		}
		if hasVal && val.String() != want {
			// Data value differs from the filter constant (inequalities):
			// surface both, as in the paper's Estonia example.
			return fmt.Sprintf("the %s is %s, %s %s", colNL, val, opPhrase(op), want)
		}
		if op == "=" {
			return fmt.Sprintf("with %s %s", colNL, want)
		}
		return fmt.Sprintf("the %s is %s %s", colNL, opPhrase(op), want)
	case annotate.KindMembership:
		neg := lab.Detail["not"] == "true"
		target := lab.Detail["value"]
		if neg {
			return fmt.Sprintf("whose %s is not among %s", colNL, target)
		}
		return fmt.Sprintf("whose %s is among %s", colNL, target)
	case annotate.KindPattern:
		neg := lab.Detail["not"] == "true"
		pat := strings.Trim(lab.Detail["pattern"], "'")
		verb := "matches"
		if neg {
			verb = "does not match"
		}
		if hasVal {
			return fmt.Sprintf("the %s %s %s the pattern %s", colNL, val, verb, pat)
		}
		return fmt.Sprintf("the %s %s the pattern %s", colNL, verb, pat)
	case annotate.KindRange:
		return fmt.Sprintf("the %s is between %s and %s", colNL, lab.Detail["lo"], lab.Detail["hi"])
	case annotate.KindNullCheck:
		if lab.Detail["not"] == "true" {
			return fmt.Sprintf("the %s is present", colNL)
		}
		return fmt.Sprintf("the %s is missing", colNL)
	case annotate.KindGroup:
		if hasVal {
			return fmt.Sprintf("grouped by %s, here %s %s", colNL, colNL, val)
		}
		return fmt.Sprintf("grouped by %s", colNL)
	case annotate.KindProjection:
		if hasVal {
			return fmt.Sprintf("the %s is %s", colNL, val)
		}
	}
	return ""
}

// tablePhrase verbalizes one table-level label.
func (e *Explainer) tablePhrase(prov *provenance.Provenance, lab annotate.Annotation, part provenance.Part, entity string) string {
	rows := 0
	if part.Table != nil {
		rows = part.Table.NumRows()
	}
	switch lab.Kind {
	case annotate.KindAggregate:
		fn := lab.Detail["func"]
		arg := lab.Detail["arg"]
		resultVal := e.aggregateResultValue(prov, part, lab)
		switch fn {
		case "count":
			noun := pluralNoun(entity)
			if arg != "*" && arg != "" && !isIDColumn(arg) {
				noun = pluralNoun(bareColumn(arg))
			}
			if lab.Detail["distinct"] == "true" {
				return fmt.Sprintf("there are %s distinct %s in total", resultVal, noun)
			}
			return fmt.Sprintf("there are %s %s in total", resultVal, noun)
		case "sum":
			return fmt.Sprintf("the total %s is %s", bareColumn(arg), resultVal)
		case "avg":
			return fmt.Sprintf("the average %s is %s", bareColumn(arg), resultVal)
		case "min":
			return fmt.Sprintf("the smallest %s is %s", bareColumn(arg), resultVal)
		case "max":
			return fmt.Sprintf("the largest %s is %s", bareColumn(arg), resultVal)
		}
	case annotate.KindHaving:
		fn, arg, op, rhs := lab.Detail["func"], lab.Detail["arg"], lab.Detail["op"], lab.Detail["rhs"]
		noun := pluralNoun(bareColumn(arg))
		if arg == "" {
			noun = "rows"
		}
		return fmt.Sprintf("keeping only groups where the %s of %s is %s %s", fn, noun, opPhrase(op), rhs)
	case annotate.KindOrder:
		key := lab.Detail["key"]
		dir := lab.Detail["dir"]
		if lim := lab.Detail["limit"]; lim != "" {
			return fmt.Sprintf("ranked by %s %s taking the top %s", bareColumn(key), dir, lim)
		}
		return fmt.Sprintf("ordered by %s %s", bareColumn(key), dir)
	case annotate.KindExists:
		if lab.Detail["not"] == "true" {
			return fmt.Sprintf("with no matching %s", lab.Detail["value"])
		}
		return fmt.Sprintf("with some matching %s", lab.Detail["value"])
	case annotate.KindDistinct:
		return "with duplicate entries removed"
	case annotate.KindFilter, annotate.KindMembership, annotate.KindPattern:
		// A filter that could not anchor to a provenance column (for
		// example the rewrite failed): verbalize from the query surface.
		op := lab.Detail["op"]
		if op == "" {
			op = "="
		}
		return fmt.Sprintf("where %s is %s %s", bareColumn(lab.Column), opPhrase(op), lab.Detail["value"])
	case annotate.KindJoin:
		_ = rows // join structure is already carried by the subject phrase
	}
	return ""
}

// aggregateResultValue resolves the concrete value of an aggregate label:
// the matching column of the to-explain result tuple when identifiable,
// else the recomputed aggregate over the provenance rows.
func (e *Explainer) aggregateResultValue(prov *provenance.Provenance, part provenance.Part, lab annotate.Annotation) string {
	table := part.Table
	// Find the aggregate's position among the core's items and take the
	// corresponding result value if the result tuple aligns.
	fn, arg := lab.Detail["func"], lab.Detail["arg"]
	if res := lookupResultAggregate(prov, part.Core, fn, arg); res != "" {
		return res
	}
	if table != nil && fn == "count" {
		return fmt.Sprintf("%d", table.NumRows())
	}
	return "the computed value"
}

// lookupResultAggregate aligns an aggregate label with the to-explain
// result tuple the Provenance carries, returning the concrete value of the
// matching projection column (or "" when no item aligns).
func lookupResultAggregate(prov *provenance.Provenance, core *sqlast.SelectCore, fn, arg string) string {
	if prov == nil || len(prov.Result) == 0 {
		return ""
	}
	for i, it := range core.Items {
		f, ok := it.Expr.(*sqlast.FuncCall)
		if !ok || !f.IsAggregate() {
			continue
		}
		gotArg := "*"
		if !f.Star && len(f.Args) == 1 {
			gotArg = sqlast.ExprSQL(f.Args[0])
		}
		if strings.EqualFold(f.Name, fn) && (gotArg == arg || arg == "") {
			if i < len(prov.Result) {
				return prov.Result[i].String()
			}
		}
	}
	return ""
}

// operationStep verbalizes a core from its query surface alone; used for
// empty-result queries that carry no data-level provenance.
func (e *Explainer) operationStep(core *sqlast.SelectCore) string {
	var tableNames []string
	for _, t := range core.Tables() {
		if t.Name != "" {
			tableNames = append(tableNames, t.Name)
		}
	}
	join := provgraph.DiscoverJoin(e.db.Schema, tableNames)
	var b strings.Builder
	b.WriteString("No data matches: the query looks for ")
	b.WriteString(describeItems(core))
	if join.Phrase != "" {
		b.WriteString(" of ")
		b.WriteString(join.Phrase)
	}
	if fs := provenance.Filters(core); len(fs) > 0 {
		b.WriteString(" where ")
		for i, f := range fs {
			if i > 0 {
				b.WriteString(" and ")
			}
			fmt.Fprintf(&b, "%s is %s %s", bareColumn(f.Column.Column), opPhrase(f.Op), f.Value.String())
		}
	}
	b.WriteString(", and no such rows exist.")
	return b.String()
}

// compose implements COMPOSE-PHRASE: the summary plus the per-part steps
// stitched with set-operation connectives.
func (e *Explainer) compose(prov *provenance.Provenance, summary string, steps []string) string {
	var b strings.Builder
	b.WriteString(summary)
	for i, s := range steps {
		b.WriteByte(' ')
		if i > 0 && i-1 < len(prov.Original.Ops) {
			switch prov.Original.Ops[i-1] {
			case sqlast.Intersect:
				b.WriteString("And also: ")
			case sqlast.Except:
				b.WriteString("Excluding: ")
			default:
				b.WriteString("Or: ")
			}
		}
		b.WriteString(s)
	}
	return strings.Join(strings.Fields(b.String()), " ")
}
