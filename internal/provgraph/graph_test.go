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
	ann := annotate.Annotate(prov)
	return Build(prov.Parts[0], ann.Parts[0])
}

func TestBuildGraphShape(t *testing.T) {
	g := buildFor(t, "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'")
	if g.Nodes[g.Table].Kind != TableNode {
		t.Fatal("table node missing")
	}
	if !strings.Contains(g.Nodes[g.Table].Label, "flight") || !strings.Contains(g.Nodes[g.Table].Label, "aircraft") {
		t.Fatalf("joint table label: %q", g.Nodes[g.Table].Label)
	}
	cols := g.Columns()
	if len(cols) == 0 {
		t.Fatal("no column nodes")
	}
	// Every column node must link from the table and have a value node.
	for _, col := range cols {
		if _, ok := g.ValueOf(col.ID); !ok {
			t.Fatalf("column %s has no value", col.Label)
		}
	}
}

func TestAnnotationsAttachToColumns(t *testing.T) {
	g := buildFor(t, "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'")
	found := false
	for _, col := range g.Columns() {
		for _, lab := range col.Labels {
			if lab.Kind == annotate.KindFilter {
				found = true
				if v, ok := g.ValueOf(col.ID); !ok || v.Text() != "Airbus A340-300" {
					t.Fatalf("filter anchored to wrong column value: %v", v)
				}
			}
		}
	}
	if !found {
		t.Fatal("filter annotation did not anchor to a column node")
	}
}

func TestTableLevelAnnotations(t *testing.T) {
	g := buildFor(t, "SELECT count(*) FROM flight")
	tn := g.Nodes[g.Table]
	hasAgg := false
	for _, lab := range tn.Labels {
		if lab.Kind == annotate.KindAggregate {
			hasAgg = true
		}
	}
	if !hasAgg {
		t.Fatal("count(*) must label the table node")
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
