// Package provgraph builds the provenance graph at the heart of CycleSQL's
// explanation generation (paper §IV-C): a directed graph whose nodes are
// provenance elements — the (possibly joint) table, its columns, and the
// values of the to-explain provenance rows — connected by "hasAttribute"
// and "hasValue" edges. Query annotations from the enrichment stage attach
// to their corresponding nodes as semantics labels.
//
// The package also implements the join-semantics discovery of Fig 6: the
// join relations of a query are converted into a table graph and matched
// by graph isomorphism against a pool of pre-defined topologies
// (object-object, subject-relationship-object, object-attribute); on a
// match, the topology's phrase template instantiates with the concrete
// table names, and otherwise the table names themselves represent the
// join semantics.
package provgraph

import (
	"strings"

	"cyclesql/internal/annotate"
	"cyclesql/internal/provenance"
	"cyclesql/internal/schema"
	"cyclesql/internal/sqltypes"
)

// TableNode is the anchor of labels on the (joint) table node.
const TableNode = -1

// Graph is the provenance graph of one provenance part, stored flat. Its
// nodes are the (joint) table node, column node i for provenance column
// Columns[i] (a
// "hasAttribute" edge from the table), and value node i for Values[i], the
// column's value in the first representative provenance row (a
// "hasValue" edge from column i). Labels are the part's annotations as
// semantics labels; Anchor[i] is the column node Labels[i] attaches to, or
// TableNode. The zero Graph is ready for Build, which reuses its storage.
type Graph struct {
	Columns []string
	Values  sqltypes.Row // nil when the provenance table has no rows
	Labels  []annotate.Annotation
	Anchor  []int
}

// Build fills g with the provenance graph of one provenance part, reusing
// g's storage. Annotations anchor onto matching column nodes; anchorless
// annotations, and those whose column the provenance lacks, label the
// table node (the paper's asterisk rule).
func (g *Graph) Build(part provenance.Part, anns []annotate.Annotation) {
	g.Columns, g.Values, g.Labels = nil, nil, anns
	g.Anchor = g.Anchor[:0]
	if part.Table != nil {
		g.Columns = part.Table.Columns
		if len(part.Table.Rows) > 0 {
			g.Values = part.Table.Rows[0]
		}
	}
	for _, a := range anns {
		col := TableNode
		if a.Anchored() {
			// A column missing from the provenance (for example dropped by a
			// failed rewrite, or an operation-level-only part) falls back to
			// the table node.
			col = matchColumn(g.Columns, a.Table, a.Column)
		}
		g.Anchor = append(g.Anchor, col)
	}
}

// matchColumn resolves an annotation anchor (table "T2", column "name",
// or an unqualified column) against the provenance columns, tolerating
// qualification differences: an exact case-insensitive match wins, then
// the first column in provenance order with the same bare name. It
// returns TableNode when no column matches.
func matchColumn(cols []string, table, column string) int {
	for i, c := range cols {
		if spells(c, table, column) {
			return i
		}
	}
	bare := column[strings.LastIndexByte(column, '.')+1:]
	for i, c := range cols {
		if strings.EqualFold(c[strings.LastIndexByte(c, '.')+1:], bare) {
			return i
		}
	}
	return TableNode
}

// spells reports whether a provenance column label spells table.column,
// or column when table is empty, ignoring case.
func spells(label, table, column string) bool {
	if table == "" {
		return strings.EqualFold(label, column)
	}
	n := len(table)
	return len(label) == n+1+len(column) && label[n] == '.' &&
		strings.EqualFold(label[:n], table) && strings.EqualFold(label[n+1:], column)
}

// ValueOf returns the representative value of column node col, if the
// provenance has one.
func (g *Graph) ValueOf(col int) (sqltypes.Value, bool) {
	if col < 0 || col >= len(g.Values) {
		return sqltypes.Value{}, false
	}
	return g.Values[col], true
}

// ---- Join-semantics discovery (Fig 6) ----

// Topology is one pre-defined inter-table relation graph in the pool.
type Topology struct {
	Name string
	// Adjacency over node indices 0..N-1 (N <= 3).
	Edges [][2]int
	// The phrase instantiates the topology with concrete natural table
	// names: node Subject's name, Connective, node Object's name.
	Subject, Object int
	Connective      string
}

// Pool is the pre-defined inter-table relation graph pool. Matching is
// attempted in order, so more specific topologies come first.
var Pool = []Topology{
	{
		// A junction table linking two entities: subject-relationship-object.
		Name:    "subject-relationship-object",
		Edges:   [][2]int{{1, 0}, {1, 2}}, // node 1 is the junction
		Subject: 0, Object: 2, Connective: " with ",
	},
	{
		// A chain where one endpoint hangs off an entity: object-attribute.
		Name:    "object-attribute",
		Edges:   [][2]int{{0, 1}, {1, 2}},
		Subject: 0, Object: 2, Connective: " of ",
	},
	{
		// Two directly related entities: object-object.
		Name:    "object-object",
		Edges:   [][2]int{{0, 1}},
		Subject: 0, Object: 1, Connective: " with ",
	},
}

// JoinSemantics is the discovered semantics of a join relation.
type JoinSemantics struct {
	Topology string // matched pool entry, or "" for the fallback
	Phrase   string
}

// DiscoverJoin matches the query's join relation (the induced schema
// subgraph over the referenced tables) against the pool. Junction tables
// (tables whose foreign keys point at both neighbors) take the middle role
// in subject-relationship-object matches. With no isomorphic pool entry,
// the associated table names represent the semantics.
func DiscoverJoin(s *schema.Schema, tables []string) JoinSemantics {
	phrase, topo := AppendJoin(nil, s, tables)
	return JoinSemantics{Topology: topo, Phrase: string(phrase)}
}

// AppendJoin appends DiscoverJoin's phrase to dst and returns the matched
// topology's name alongside. It allocates nothing: the schema's table
// graph is built once per schema, and the match runs over table indices.
func AppendJoin(dst []byte, s *schema.Schema, tables []string) ([]byte, string) {
	if len(tables) < 2 {
		if len(tables) == 1 {
			if t := s.Table(tables[0]); t != nil {
				dst = t.AppendNatural(dst)
			}
		}
		return dst, ""
	}
	// The induced subgraph's nodes: the referenced schema tables, in schema
	// order. Pool topologies have at most three nodes.
	var nodes [3]int
	n := 0
	for i, t := range s.Tables {
		if !references(tables, t.Name) {
			continue
		}
		if n == len(nodes) {
			n++
			break
		}
		nodes[n] = i
		n++
	}
	if n <= len(nodes) {
		g := s.Graph()
		for _, topo := range Pool {
			assign, ok := isomorphic(g, nodes[:n], topo)
			if !ok {
				continue
			}
			// For subject-relationship-object, verify the middle node is a
			// true junction (out-FKs to both neighbors); otherwise prefer
			// the chain reading.
			if topo.Name == "subject-relationship-object" && !isJunction(s, assign[1], assign[0], assign[2]) {
				continue
			}
			dst = s.Tables[assign[topo.Subject]].AppendNatural(dst)
			dst = append(dst, topo.Connective...)
			dst = s.Tables[assign[topo.Object]].AppendNatural(dst)
			return dst, topo.Name
		}
	}
	// Fallback: join the natural table names.
	for i, tname := range tables {
		if i > 0 {
			dst = append(dst, " with "...)
		}
		if t := s.Table(tname); t != nil {
			dst = t.AppendNatural(dst)
		} else {
			dst = schema.AppendNatural(dst, tname)
		}
	}
	return dst, ""
}

// references reports whether the query's table list names table.
func references(tables []string, table string) bool {
	for _, t := range tables {
		if strings.EqualFold(t, table) {
			return true
		}
	}
	return false
}

// isJunction reports whether table mid has foreign keys to both a and b
// (schema table indices).
func isJunction(s *schema.Schema, mid, a, b int) bool {
	toA, toB := false, false
	for _, fk := range s.ForeignKeysFrom(s.Tables[mid].Name) {
		if strings.EqualFold(fk.RefTable, s.Tables[a].Name) {
			toA = true
		}
		if strings.EqualFold(fk.RefTable, s.Tables[b].Name) {
			toB = true
		}
	}
	return toA && toB
}

// permutations lists, per node count, every assignment of graph nodes to
// topology nodes in lexicographic order, so the first match is the one a
// depth-first search in index order finds.
var permutations = [4][][3]int{
	2: {{0, 1}, {1, 0}},
	3: {{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}},
}

// isomorphic checks whether the schema subgraph induced by nodes (schema
// table indices, undirected, self-loops counted as edges) is isomorphic to
// the topology, returning the schema table assigned to each topology node.
// Pool graphs have at most three nodes, so the search runs over a fixed
// permutation table and an adjacency matrix, with no maps.
func isomorphic(g *schema.Graph, nodes []int, topo Topology) ([3]int, bool) {
	var out [3]int
	n := len(nodes)
	if n != topoSize(topo) {
		return out, false
	}
	var adj [3][3]bool
	edges := 0
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			if g.Adjacent(nodes[a], nodes[b]) {
				adj[a][b], adj[b][a] = true, true
				edges++
			}
		}
	}
	if edges != len(topo.Edges) {
		return out, false
	}
	for _, p := range permutations[n] {
		ok := true
		for _, e := range topo.Edges {
			if !adj[p[e[0]]][p[e[1]]] {
				ok = false
				break
			}
		}
		if ok {
			for k := 0; k < n; k++ {
				out[k] = nodes[p[k]]
			}
			return out, true
		}
	}
	return out, false
}

func topoSize(t Topology) int {
	size := 0
	for _, e := range t.Edges {
		size = max(size, e[0]+1, e[1]+1)
	}
	return size
}
