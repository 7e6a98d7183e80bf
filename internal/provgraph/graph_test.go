package provgraph

import (
	"context"
	"strings"
	"testing"

	"cyclesql/internal/annotate"
	"cyclesql/internal/datasets"
	"cyclesql/internal/provenance"
	"cyclesql/internal/schema"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
)

func buildFor(t *testing.T, sql string) *Graph {
	t.Helper()
	db := datasets.FlightDB()
	stmt := sqlparse.MustParse(sql)
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := provenance.NewTracker(db).TrackContext(context.Background(), stmt, rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	var g Graph
	g.Build(prov.Parts[0], annotate.Append(nil, prov.Parts[0].Core))
	return &g
}

func TestBuildGraphShape(t *testing.T) {
	g := buildFor(t, "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'")
	if len(g.Columns) == 0 {
		t.Fatal("no column nodes")
	}
	// Every column node must have a value node.
	for i, col := range g.Columns {
		if _, ok := g.ValueOf(i); !ok {
			t.Fatalf("column %s has no value", col)
		}
	}
	if _, ok := g.ValueOf(len(g.Columns)); ok {
		t.Fatal("value past the last column")
	}
}

func TestAnnotationsAttachToColumns(t *testing.T) {
	g := buildFor(t, "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'")
	found := false
	for i, lab := range g.Labels {
		if lab.Kind == annotate.KindFilter {
			found = true
			if v, ok := g.ValueOf(g.Anchor[i]); !ok || v.Text() != "Airbus A340-300" {
				t.Fatalf("filter anchored to wrong column value: %v", v)
			}
		}
	}
	if !found {
		t.Fatal("filter annotation did not anchor to a column node")
	}
}

func TestTableLevelAnnotations(t *testing.T) {
	g := buildFor(t, "SELECT count(*) FROM flight")
	hasAgg := false
	for i, lab := range g.Labels {
		if lab.Kind == annotate.KindAggregate && g.Anchor[i] == TableNode {
			hasAgg = true
		}
	}
	if !hasAgg {
		t.Fatal("count(*) must label the table node")
	}
}

// An anchor whose bare name matches several provenance columns resolves
// to the first of them in provenance order, never to a random one.
func TestMatchColumnAmbiguousBareName(t *testing.T) {
	cols := []string{"T1.name", "T1.id", "T2.id", "T3.id"}
	for range 50 {
		if got := matchColumn(cols, "", "id"); got != 1 {
			t.Fatalf("matchColumn(id) = %d, want 1", got)
		}
	}
	cases := []struct {
		table, column string
		want          int
	}{
		{"T2", "id", 2}, {"t3", "ID", 3}, {"T9", "id", 1}, {"", "NAME", 0},
		{"T1", "name", 0}, {"", "missing", TableNode}, {"T1", "missing", TableNode},
	}
	for _, c := range cases {
		if got := matchColumn(cols, c.table, c.column); got != c.want {
			t.Errorf("matchColumn(%q, %q) = %d, want %d", c.table, c.column, got, c.want)
		}
	}
}

func worldSchema() *schema.Schema {
	return &schema.Schema{
		Name: "s",
		Tables: []*schema.Table{
			{Name: "Concert", Columns: []schema.Column{{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true}}},
			{Name: "Singer", Columns: []schema.Column{{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true}}},
			{Name: "Singer_in_concert", Columns: []schema.Column{
				{Name: "concert_id", Type: sqltypes.KindInt},
				{Name: "singer_id", Type: sqltypes.KindInt},
			}},
			{Name: "Review", Columns: []schema.Column{{Name: "id", Type: sqltypes.KindInt}, {Name: "concert_id", Type: sqltypes.KindInt}}},
		},
		ForeignKeys: []schema.ForeignKey{
			{Table: "Singer_in_concert", Column: "concert_id", RefTable: "Concert", RefColumn: "id"},
			{Table: "Singer_in_concert", Column: "singer_id", RefTable: "Singer", RefColumn: "id"},
			{Table: "Review", Column: "concert_id", RefTable: "Concert", RefColumn: "id"},
		},
	}
}

// The paper's Fig 6: a junction table joining two entities matches
// subject-relationship-object and instantiates "singer with concert".
func TestDiscoverJoinJunction(t *testing.T) {
	js := DiscoverJoin(worldSchema(), []string{"Concert", "Singer_in_concert", "Singer"})
	if js.Topology != "subject-relationship-object" {
		t.Fatalf("topology = %q", js.Topology)
	}
	if !strings.Contains(js.Phrase, "with") {
		t.Fatalf("phrase = %q", js.Phrase)
	}
}

func TestDiscoverJoinTwoTables(t *testing.T) {
	js := DiscoverJoin(worldSchema(), []string{"Concert", "Review"})
	if js.Topology != "object-object" {
		t.Fatalf("topology = %q", js.Topology)
	}
}

func TestDiscoverJoinChainIsObjectAttribute(t *testing.T) {
	// Review -> Concert -> (via junction) is not a junction pattern:
	// Review-Concert-Singer_in_concert forms a chain centred on Concert,
	// and Concert has no out-FKs, so the object-attribute reading wins.
	js := DiscoverJoin(worldSchema(), []string{"Review", "Concert", "Singer_in_concert"})
	if js.Topology != "object-attribute" {
		t.Fatalf("topology = %q (phrase %q)", js.Topology, js.Phrase)
	}
}

func TestDiscoverJoinFallback(t *testing.T) {
	s := worldSchema()
	// Concert and Singer share no FK: no pool match, fallback phrase.
	js := DiscoverJoin(s, []string{"Concert", "Singer"})
	if js.Topology != "" {
		t.Fatalf("expected fallback, got %q", js.Topology)
	}
	if js.Phrase == "" {
		t.Fatal("fallback phrase empty")
	}
}

func TestDiscoverJoinSingleTable(t *testing.T) {
	js := DiscoverJoin(worldSchema(), []string{"Concert"})
	if js.Phrase != "concert" {
		t.Fatalf("single-table phrase = %q", js.Phrase)
	}
}
