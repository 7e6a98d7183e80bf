package explain

import (
	"context"
	"strings"
	"sync"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

func explainSQL(t *testing.T, db *storage.Database, sql string, rowIdx int) *Explanation {
	t.Helper()
	stmt := sqlparse.MustParse(sql)
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	e := New(db)
	exp, err := e.ExplainContext(context.Background(), stmt, rel, rowIdx)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// The paper's motivating example (Fig 2 / Example 1): the explanation of
// the erroneous count query must surface both the filter and the count 2 —
// exactly the signal that lets the verifier reject the translation.
func TestExplainPaperMotivatingExample(t *testing.T) {
	db := datasets.FlightDB()
	exp := explainSQL(t, db, "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'", 0)
	text := strings.ToLower(exp.Text)
	for _, want := range []string{"one column", "aggregation type (count)", "one row", "airbus a340-300", "2 flights in total"} {
		if !strings.Contains(text, want) {
			t.Errorf("explanation missing %q:\n%s", want, exp.Text)
		}
	}
}

// The correct translation's explanation lists flight numbers, not counts.
func TestExplainCorrectTranslationDiffers(t *testing.T) {
	db := datasets.FlightDB()
	wrong := explainSQL(t, db, "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'", 0)
	right := explainSQL(t, db, "SELECT T1.flno FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'", 0)
	if wrong.Text == right.Text {
		t.Fatal("correct and incorrect translations must explain differently")
	}
	if !strings.Contains(strings.ToLower(right.Text), "flno") && !strings.Contains(right.Text, "7") {
		t.Fatalf("correct explanation must ground the flight number:\n%s", right.Text)
	}
}

// Paper Table IV Q2: simple lookup explanation grounds the value.
func TestExplainSimpleLookup(t *testing.T) {
	db := datasets.WorldDB()
	exp := explainSQL(t, db, "SELECT continent FROM country WHERE name = 'Anguilla'", 0)
	text := strings.ToLower(exp.Text)
	if !strings.Contains(text, "anguilla") || !strings.Contains(text, "north america") {
		t.Fatalf("lookup explanation:\n%s", exp.Text)
	}
}

// Paper Table IV Q5: grouped query with HAVING.
func TestExplainGroupedHaving(t *testing.T) {
	db := datasets.WorldDB()
	sql := "SELECT count(T2.language), T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode GROUP BY T1.name HAVING count(*) > 2"
	stmt := sqlparse.MustParse(sql)
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	// Find Iraq's row.
	idx := -1
	for i, row := range rel.Rows {
		if row[1].Text() == "Iraq" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("no Iraq row: %v", rel.Rows)
	}
	exp, err := New(db).ExplainContext(context.Background(), stmt, rel, idx)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ToLower(exp.Text)
	if !strings.Contains(text, "iraq") {
		t.Fatalf("group pin missing:\n%s", exp.Text)
	}
	if !strings.Contains(text, "5 languages in total") {
		t.Fatalf("aggregate grounding missing:\n%s", exp.Text)
	}
}

// Paper Table IV Q3: INTERSECT composes both parts.
func TestExplainIntersect(t *testing.T) {
	db := datasets.WorldDB()
	sql := "SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'English' INTERSECT SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'French'"
	stmt := sqlparse.MustParse(sql)
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := New(db).ExplainContext(context.Background(), stmt, rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ToLower(exp.Text)
	if !strings.Contains(text, "english") || !strings.Contains(text, "french") {
		t.Fatalf("intersect explanation must mention both filters:\n%s", exp.Text)
	}
	if !strings.Contains(text, "and also") {
		t.Fatalf("intersect connective missing:\n%s", exp.Text)
	}
}

// Inequality filters ground both the data value and the constant, like the
// paper's Estonia example.
func TestExplainInequalityGrounding(t *testing.T) {
	db := datasets.WorldDB()
	exp := explainSQL(t, db, "SELECT name FROM country WHERE continent = 'Europe' AND population >= 80000", 0)
	text := strings.ToLower(exp.Text)
	if !strings.Contains(text, "greater than or equal to 80000") {
		t.Fatalf("filter constant missing:\n%s", exp.Text)
	}
	// The pinned country's actual population must appear.
	pop := exp.Prov.Parts[0].Table.Rows[0][exp.Prov.Parts[0].Table.ColumnIndex("population")]
	if !strings.Contains(exp.Text, pop.String()) {
		t.Fatalf("data value %s missing:\n%s", pop, exp.Text)
	}
}

func TestExplainEmptyResult(t *testing.T) {
	db := datasets.WorldDB()
	stmt := sqlparse.MustParse("SELECT name FROM country WHERE continent = 'Atlantis'")
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := New(db).ExplainContext(context.Background(), stmt, rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ToLower(exp.Text)
	if !strings.Contains(text, "0 rows") && !strings.Contains(text, "no data matches") {
		t.Fatalf("empty-result explanation:\n%s", exp.Text)
	}
	if !strings.Contains(text, "atlantis") {
		t.Fatalf("operation-level semantics missing:\n%s", exp.Text)
	}
}

func TestExplainNotInSubquery(t *testing.T) {
	db := datasets.FlightDB()
	exp := explainSQL(t, db, "SELECT name FROM aircraft WHERE aid NOT IN (SELECT aid FROM flight)", 0)
	text := strings.ToLower(exp.Text)
	if !strings.Contains(text, "not among") {
		t.Fatalf("membership phrase missing:\n%s", exp.Text)
	}
}

func TestExplainDeterministic(t *testing.T) {
	db := datasets.FlightDB()
	a := explainSQL(t, db, "SELECT count(*) FROM flight WHERE origin = 'Chicago'", 0)
	b := explainSQL(t, db, "SELECT count(*) FROM flight WHERE origin = 'Chicago'", 0)
	if a.Text != b.Text {
		t.Fatal("explanations must be deterministic")
	}
}

func TestPolisherApplied(t *testing.T) {
	db := datasets.FlightDB()
	e := New(db)
	e.Polish = RulePolisher{}
	stmt := sqlparse.MustParse("SELECT count(*) FROM flight WHERE origin = 'Chicago'")
	rel, _ := sqleval.New(db).ExecContext(context.Background(), stmt)
	exp, err := e.ExplainContext(context.Background(), stmt, rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(exp.Text, ".") {
		t.Fatalf("polished text must end with a period: %q", exp.Text)
	}
	if strings.Contains(exp.Text, "  ") {
		t.Fatalf("polished text has double spaces: %q", exp.Text)
	}
}

func TestRulePolisherFixes(t *testing.T) {
	p := RulePolisher{}
	if got := p.Polish("the the query  runs . . and is is fine"); strings.Contains(got, "the the") || strings.Contains(got, "  ") {
		t.Fatalf("polish failed: %q", got)
	}
	if got := p.Polish("hello"); got != "Hello." {
		t.Fatalf("capitalize+period: %q", got)
	}
}

func TestOpPhraseTable(t *testing.T) {
	cases := map[string]string{
		"=": "equal to", ">=": "greater than or equal to", "<": "less than",
		"!=": "not equal to", "LIKE": "like",
	}
	for op, want := range cases {
		if got := opPhrase(op); got != want {
			t.Errorf("opPhrase(%s) = %q", op, got)
		}
	}
}

func TestPluralNoun(t *testing.T) {
	cases := map[string]string{"flight": "flights", "city": "cities", "bus": "buses", "match": "matches", "day": "days"}
	for in, want := range cases {
		if got := string(pluralize([]byte("the "+in+" "), 4)); got != "the "+want {
			t.Errorf("pluralNoun(%q) = %q want %q", in, got, want)
		}
	}
}

// TestExplainerConcurrentUse shares one Explainer across goroutines
// explaining different statements at once — the parallel-candidate
// scenario — and requires every goroutine to see exactly the text the
// sequential path produces. Run under -race it also gates the removal of
// the explainer's in-flight provenance field.
func TestExplainerConcurrentUse(t *testing.T) {
	db := datasets.FlightDB()
	queries := []string{
		"SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'",
		"SELECT flno FROM flight WHERE origin = 'Los Angeles'",
		"SELECT name FROM aircraft WHERE distance > 5000",
		"SELECT count(*) FROM aircraft",
	}
	type prepared struct {
		stmt *sqlast.SelectStmt
		rel  *sqltypes.Relation
		want string
	}
	seq := New(db)
	cases := make([]prepared, len(queries))
	for i, q := range queries {
		stmt := sqlparse.MustParse(q)
		rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
		if err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
		exp, err := seq.ExplainContext(context.Background(), stmt, rel, 0)
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = prepared{stmt: stmt, rel: rel, want: exp.Text}
	}
	shared := New(db)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := cases[(g+i)%len(cases)]
				exp, err := shared.ExplainContext(context.Background(), c.stmt, c.rel, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if exp.Text != c.want {
					t.Errorf("concurrent explanation diverged:\nwant %s\ngot  %s", c.want, exp.Text)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
