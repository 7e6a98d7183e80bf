package schema

import (
	"reflect"
	"sort"
	"testing"

	"cyclesql/internal/sqltypes"
)

func testSchema() *Schema {
	return &Schema{
		Name: "concert_singer",
		Tables: []*Table{
			{Name: "Concert", Columns: []Column{
				{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "name", Type: sqltypes.KindText},
				{Name: "year", Type: sqltypes.KindInt},
			}},
			{Name: "Singer", Columns: []Column{
				{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "name", Type: sqltypes.KindText, NaturalName: "singer name"},
			}},
			{Name: "Singer_in_concert", NaturalName: "singer in concert", Columns: []Column{
				{Name: "concert_id", Type: sqltypes.KindInt},
				{Name: "singer_id", Type: sqltypes.KindInt},
			}},
		},
		ForeignKeys: []ForeignKey{
			{Table: "Singer_in_concert", Column: "concert_id", RefTable: "Concert", RefColumn: "id"},
			{Table: "Singer_in_concert", Column: "singer_id", RefTable: "Singer", RefColumn: "id"},
		},
	}
}

func TestValidateGoodSchema(t *testing.T) {
	if err := testSchema().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	s := testSchema()
	s.Tables = append(s.Tables, &Table{Name: "concert"})
	if err := s.Validate(); err == nil {
		t.Fatal("duplicate table (case-insensitive) must fail")
	}
	s = testSchema()
	s.ForeignKeys = append(s.ForeignKeys, ForeignKey{Table: "Nope", Column: "x", RefTable: "Concert", RefColumn: "id"})
	if err := s.Validate(); err == nil {
		t.Fatal("missing FK source must fail")
	}
	s = testSchema()
	s.ForeignKeys[0].RefColumn = "ghost"
	if err := s.Validate(); err == nil {
		t.Fatal("missing FK target column must fail")
	}
	s = testSchema()
	s.Tables[0].Columns = append(s.Tables[0].Columns, Column{Name: "ID"})
	if err := s.Validate(); err == nil {
		t.Fatal("duplicate column must fail")
	}
}

func TestLookupsCaseInsensitive(t *testing.T) {
	s := testSchema()
	if s.Table("CONCERT") == nil || s.Table("missing") != nil {
		t.Fatal("Table lookup broken")
	}
	if s.Table("Concert").Column("YEAR") == nil {
		t.Fatal("Column lookup broken")
	}
}

func TestResolveColumn(t *testing.T) {
	s := testSchema()
	tbl, col := s.ResolveColumn("year", nil)
	if tbl != "Concert" || col == nil {
		t.Fatalf("ResolveColumn year = %q", tbl)
	}
	tbl, _ = s.ResolveColumn("singer_id", []string{"Singer_in_concert"})
	if tbl != "Singer_in_concert" {
		t.Fatalf("scoped resolve = %q", tbl)
	}
	if tbl, col := s.ResolveColumn("ghost", nil); tbl != "" || col != nil {
		t.Fatal("missing column must resolve empty")
	}
}

func TestForeignKeyBetween(t *testing.T) {
	s := testSchema()
	if s.ForeignKeyBetween("Concert", "Singer_in_concert") == nil {
		t.Fatal("FK lookup must work in both directions")
	}
	if s.ForeignKeyBetween("Concert", "Singer") != nil {
		t.Fatal("no direct FK between Concert and Singer")
	}
	if n := len(s.ForeignKeysFrom("Singer_in_concert")); n != 2 {
		t.Fatalf("ForeignKeysFrom = %d", n)
	}
}

func TestNaturalize(t *testing.T) {
	cases := map[string]string{
		"Singer_in_concert": "singer in concert",
		"flightNo":          "flight no",
		"countrycode":       "countrycode",
		"HS":                "hs",
	}
	for in, want := range cases {
		if got := Naturalize(in); got != want {
			t.Errorf("Naturalize(%q) = %q want %q", in, got, want)
		}
	}
}

func TestTableNatural(t *testing.T) {
	s := testSchema()
	if got := s.Table("Singer_in_concert").Natural(); got != "singer in concert" {
		t.Fatalf("Natural = %q", got)
	}
	if got := s.Table("Concert").Natural(); got != "concert" {
		t.Fatalf("fallback Natural = %q", got)
	}
}

func TestGraphTopology(t *testing.T) {
	s := testSchema()
	g := s.Graph()
	if len(g.Adj) != 3 {
		t.Fatalf("nodes = %v", g.Adj)
	}
	// Junction table has degree 2, endpoints degree 1.
	var degrees []int
	for _, adj := range g.Adj {
		degrees = append(degrees, len(adj))
	}
	sort.Ints(degrees)
	if !reflect.DeepEqual(degrees, []int{1, 1, 2}) {
		t.Fatalf("degrees = %v", degrees)
	}
	concert, junction := s.TableIndex("concert"), s.TableIndex("Singer_in_concert")
	if !g.Adjacent(concert, junction) || !g.Adjacent(junction, concert) || g.Adjacent(concert, concert) {
		t.Fatalf("adjacency = %v", g.Adj)
	}
	if s.Graph() != g {
		t.Fatal("Graph must be built once per schema")
	}
}

// AppendNatural must render exactly what Naturalize returns, on the ASCII
// fast path and through the non-ASCII fallback alike.
func TestAppendNaturalMatchesNaturalize(t *testing.T) {
	idents := []string{
		"", "_", "__a__", "Singer_in_concert", "flightNo", "countrycode", "HS",
		"aB", "ABc", "a1B", "x_Y", " lead trail ", "tab\tsep", "a__b", "Épée_Name",
		"naïveCase", "nbsp\u00a0sep", "T2.name", "camelCaseID",
	}
	for _, in := range idents {
		if got, want := string(AppendNatural([]byte("p:"), in)), "p:"+Naturalize(in); got != want {
			t.Errorf("AppendNatural(%q) = %q want %q", in, got, want)
		}
	}
}

func TestSerializePromptFormat(t *testing.T) {
	s := testSchema()
	out := s.Serialize()
	want := "Table Concert with columns 'id', 'name', 'year';"
	if got := out[:len(want)]; got != want {
		t.Fatalf("Serialize first line = %q", got)
	}
}

func TestPrimaryKeys(t *testing.T) {
	s := testSchema()
	if pk := s.Table("Concert").PrimaryKeys(); len(pk) != 1 || pk[0] != "id" {
		t.Fatalf("PrimaryKeys = %v", pk)
	}
	if pk := s.Table("Singer_in_concert").PrimaryKeys(); len(pk) != 0 {
		t.Fatalf("junction PKs = %v", pk)
	}
}
