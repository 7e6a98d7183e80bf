// Package schema models relational database schemata: tables, typed
// columns, primary and foreign keys, plus the natural-language surface
// names used by the explanation generator and the benchmark question
// templates.
//
// The package also exposes the schema as a graph (tables as nodes, foreign
// keys as edges), which the join-semantics discovery of the explanation
// generator matches against a pool of pre-defined relation topologies
// (paper §IV-C, Fig 6).
package schema

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"cyclesql/internal/sqltypes"
)

// Column describes one table column.
type Column struct {
	Name        string        // SQL identifier, e.g. "flno"
	Type        sqltypes.Kind // INTEGER, REAL or TEXT
	NaturalName string        // NL surface form, e.g. "flight number"
	PrimaryKey  bool
	// Role hints the benchmark question templates at how the column is
	// used: "id", "name", "category", "measure", "place", "fk", "level".
	// It is metadata for data/question generation, not SQL semantics.
	Role string
}

// ForeignKey is a directed reference from (Table, Column) to
// (RefTable, RefColumn).
type ForeignKey struct {
	Table     string
	Column    string
	RefTable  string
	RefColumn string
}

// Table describes one relation.
type Table struct {
	Name        string
	NaturalName string
	Columns     []Column
}

// Column returns the named column, or nil. Matching is case-insensitive.
func (t *Table) Column(name string) *Column {
	for i := range t.Columns {
		if strings.EqualFold(t.Columns[i].Name, name) {
			return &t.Columns[i]
		}
	}
	return nil
}

// ColumnNames returns the column identifiers in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// PrimaryKeys returns the names of the primary-key columns.
func (t *Table) PrimaryKeys() []string {
	var out []string
	for _, c := range t.Columns {
		if c.PrimaryKey {
			out = append(out, c.Name)
		}
	}
	return out
}

// Natural returns the table's NL surface form, falling back to a
// de-underscored lowering of the identifier.
func (t *Table) Natural() string {
	if t.NaturalName != "" {
		return t.NaturalName
	}
	return Naturalize(t.Name)
}

// Schema is a complete database schema. Build it fully before first use
// and do not copy it afterwards: its table graph is derived once and
// cached.
type Schema struct {
	Name        string
	Tables      []*Table
	ForeignKeys []ForeignKey

	graphOnce sync.Once
	graph     *Graph
}

// Table returns the named table, or nil. Matching is case-insensitive.
func (s *Schema) Table(name string) *Table {
	if i := s.TableIndex(name); i >= 0 {
		return s.Tables[i]
	}
	return nil
}

// TableIndex returns the position of the named table in Tables, or -1.
// Matching is case-insensitive.
func (s *Schema) TableIndex(name string) int {
	for i, t := range s.Tables {
		if strings.EqualFold(t.Name, name) {
			return i
		}
	}
	return -1
}

// TableNames returns the table identifiers in declaration order.
func (s *Schema) TableNames() []string {
	out := make([]string, len(s.Tables))
	for i, t := range s.Tables {
		out[i] = t.Name
	}
	return out
}

// ResolveColumn finds the table owning an unqualified column name. If the
// column exists in several tables the first declaration wins; callers that
// need join-aware resolution pass their own candidate table list.
func (s *Schema) ResolveColumn(column string, among []string) (table string, col *Column) {
	names := among
	if len(names) == 0 {
		names = s.TableNames()
	}
	for _, tn := range names {
		t := s.Table(tn)
		if t == nil {
			continue
		}
		if c := t.Column(column); c != nil {
			return t.Name, c
		}
	}
	return "", nil
}

// ForeignKeyBetween returns the foreign key linking two tables in either
// direction, or nil.
func (s *Schema) ForeignKeyBetween(a, b string) *ForeignKey {
	for i := range s.ForeignKeys {
		fk := &s.ForeignKeys[i]
		if (strings.EqualFold(fk.Table, a) && strings.EqualFold(fk.RefTable, b)) ||
			(strings.EqualFold(fk.Table, b) && strings.EqualFold(fk.RefTable, a)) {
			return fk
		}
	}
	return nil
}

// ForeignKeysFrom returns all foreign keys whose source is the given table.
func (s *Schema) ForeignKeysFrom(table string) []ForeignKey {
	var out []ForeignKey
	for _, fk := range s.ForeignKeys {
		if strings.EqualFold(fk.Table, table) {
			out = append(out, fk)
		}
	}
	return out
}

// Validate checks referential integrity of the schema definition itself:
// all FK endpoints exist, PKs are declared, names are unique.
func (s *Schema) Validate() error {
	seen := map[string]bool{}
	for _, t := range s.Tables {
		key := strings.ToLower(t.Name)
		if seen[key] {
			return fmt.Errorf("schema %s: duplicate table %s", s.Name, t.Name)
		}
		seen[key] = true
		colSeen := map[string]bool{}
		for _, c := range t.Columns {
			ck := strings.ToLower(c.Name)
			if colSeen[ck] {
				return fmt.Errorf("schema %s: duplicate column %s.%s", s.Name, t.Name, c.Name)
			}
			colSeen[ck] = true
		}
	}
	for _, fk := range s.ForeignKeys {
		src := s.Table(fk.Table)
		dst := s.Table(fk.RefTable)
		if src == nil || dst == nil {
			return fmt.Errorf("schema %s: foreign key references missing table (%s -> %s)", s.Name, fk.Table, fk.RefTable)
		}
		if src.Column(fk.Column) == nil {
			return fmt.Errorf("schema %s: foreign key column %s.%s missing", s.Name, fk.Table, fk.Column)
		}
		if dst.Column(fk.RefColumn) == nil {
			return fmt.Errorf("schema %s: foreign key target %s.%s missing", s.Name, fk.RefTable, fk.RefColumn)
		}
	}
	return nil
}

// Serialize renders the schema in the compact prompt format used by the
// paper's few-shot LLM prompt ("Table Player with columns 'pID', ...").
func (s *Schema) Serialize() string {
	var b strings.Builder
	for _, t := range s.Tables {
		b.WriteString("Table ")
		b.WriteString(t.Name)
		b.WriteString(" with columns ")
		for i, c := range t.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("'")
			b.WriteString(c.Name)
			b.WriteString("'")
		}
		b.WriteString(";\n")
	}
	return b.String()
}

// Naturalize converts a SQL identifier into an NL surface form:
// "Singer_in_concert" becomes "singer in concert", "countrycode" stays.
func Naturalize(ident string) string {
	out := strings.ReplaceAll(ident, "_", " ")
	// Split lowerCamelCase boundaries.
	var b strings.Builder
	for i, r := range out {
		if i > 0 && r >= 'A' && r <= 'Z' {
			prev := out[i-1]
			if prev >= 'a' && prev <= 'z' {
				b.WriteByte(' ')
			}
		}
		b.WriteRune(r)
	}
	return strings.ToLower(strings.Join(strings.Fields(b.String()), " "))
}

// AppendNatural appends Naturalize(ident) to dst. ASCII identifiers take
// one pass with no allocation; others fall back to Naturalize.
func AppendNatural(dst []byte, ident string) []byte {
	for i := 0; i < len(ident); i++ {
		if ident[i] >= utf8.RuneSelf {
			return append(dst, Naturalize(ident)...)
		}
	}
	start, sep := len(dst), false
	for i := 0; i < len(ident); i++ {
		c := ident[i]
		switch c {
		case '_', ' ', '\t', '\n', '\v', '\f', '\r':
			sep = true
			continue
		}
		if c >= 'A' && c <= 'Z' {
			if i > 0 && ident[i-1] >= 'a' && ident[i-1] <= 'z' {
				sep = true
			}
			c += 'a' - 'A'
		}
		if sep && len(dst) > start {
			dst = append(dst, ' ')
		}
		sep = false
		dst = append(dst, c)
	}
	return dst
}

// AppendNatural appends Natural's rendering of t to dst.
func (t *Table) AppendNatural(dst []byte) []byte {
	if t.NaturalName != "" {
		return append(dst, t.NaturalName...)
	}
	return AppendNatural(dst, t.Name)
}

// Graph is the schema's table graph: node i is Tables[i], and Adj[i]
// lists in ascending order the nodes sharing a foreign key with node i,
// once per key. Foreign-key endpoints resolve case-insensitively, as in
// Table.
type Graph struct {
	Adj [][]int
}

// Graph returns the schema's table graph. It is built on the first call
// and shared by every later one, so complete the schema before calling it.
func (s *Schema) Graph() *Graph {
	s.graphOnce.Do(func() {
		g := &Graph{Adj: make([][]int, len(s.Tables))}
		for _, fk := range s.ForeignKeys {
			a, b := s.TableIndex(fk.Table), s.TableIndex(fk.RefTable)
			if a < 0 || b < 0 {
				continue
			}
			g.Adj[a] = append(g.Adj[a], b)
			g.Adj[b] = append(g.Adj[b], a)
		}
		for _, adj := range g.Adj {
			slices.Sort(adj)
		}
		s.graph = g
	})
	return s.graph
}

// Adjacent reports whether nodes i and j share a foreign key.
func (g *Graph) Adjacent(i, j int) bool {
	_, found := slices.BinarySearch(g.Adj[i], j)
	return found
}
