package datasets

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlnorm"
)

func TestSpiderConstruction(t *testing.T) {
	b := Spider()
	if len(b.Train) < 700 {
		t.Fatalf("train examples = %d, want hundreds", len(b.Train))
	}
	if len(b.Dev) < 250 {
		t.Fatalf("dev examples = %d", len(b.Dev))
	}
	if len(b.Test) < 200 {
		t.Fatalf("test examples = %d", len(b.Test))
	}
	if len(b.Databases) != len(trainVocabs)+len(devVocabs)+len(testVocabs)+2 {
		t.Fatalf("databases = %d", len(b.Databases))
	}
}

func TestSplitsUseDisjointDatabases(t *testing.T) {
	b := Spider()
	trainDBs := map[string]bool{}
	for _, ex := range b.Train {
		trainDBs[ex.DBName] = true
	}
	for _, ex := range append(append([]Example{}, b.Dev...), b.Test...) {
		if trainDBs[ex.DBName] {
			t.Fatalf("database %s appears in train and eval splits", ex.DBName)
		}
	}
}

func TestEveryGoldExecutes(t *testing.T) {
	for _, name := range []string{"spider", "spider-realistic", "spider-syn", "spider-dk", "science"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, split := range [][]Example{b.Train, b.Dev, b.Test} {
			for _, ex := range split {
				db := b.DB(ex.DBName)
				if _, err := sqleval.New(db).ExecContext(context.Background(), ex.Gold); err != nil {
					t.Fatalf("%s/%s: gold does not execute: %v", name, ex.ID, err)
				}
			}
		}
	}
}

func TestDifficultySpectrum(t *testing.T) {
	b := Spider()
	counts := map[sqlnorm.Difficulty]int{}
	for _, ex := range b.Dev {
		counts[ex.Difficulty]++
	}
	for _, d := range sqlnorm.Difficulties {
		if counts[d] == 0 {
			t.Fatalf("dev split has no %s examples: %v", d, counts)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := buildSpider()
	b := buildSpider()
	if len(a.Dev) != len(b.Dev) {
		t.Fatal("non-deterministic dev size")
	}
	for i := range a.Dev {
		if a.Dev[i].Question != b.Dev[i].Question || a.Dev[i].GoldSQL != b.Dev[i].GoldSQL {
			t.Fatalf("non-deterministic example %d", i)
		}
	}
}

func TestWorldPaperFacts(t *testing.T) {
	db := WorldDB()
	ex := sqleval.New(db)
	check := func(sql string, want int64) {
		t.Helper()
		rel, err := ex.ExecContext(context.Background(), mustParse(t, sql))
		if err != nil {
			t.Fatal(err)
		}
		if rel.NumRows() != 1 || rel.Rows[0][0].Int() != want {
			t.Fatalf("%s = %v, want %d", sql, rel.Rows, want)
		}
	}
	// Aruba speaks four languages (paper Q1).
	check("SELECT count(T2.language) FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T1.name = 'Aruba'", 4)
	// Iraq speaks five languages (paper Q5).
	check("SELECT count(*) FROM countrylanguage WHERE countrycode = 'IRQ'", 5)
	// Anguilla is in North America (paper Q2).
	rel, err := ex.ExecContext(context.Background(), mustParse(t, "SELECT continent FROM country WHERE name = 'Anguilla'"))
	if err != nil || rel.Rows[0][0].Text() != "North America" {
		t.Fatalf("Anguilla: %v %v", rel, err)
	}
	// Seychelles speaks both English and French (paper Q3).
	rel, err = ex.ExecContext(context.Background(), mustParse(t, "SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'English' INTERSECT SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'French'"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range rel.Rows {
		if row[0].Text() == "Seychelles" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Seychelles must speak both English and French: %v", rel.Rows)
	}
}

func TestVariantPerturbations(t *testing.T) {
	syn := SpiderSyn()
	if len(syn.Dev) == 0 {
		t.Fatal("syn variant empty")
	}
	base := Spider()
	baseQ := map[string]string{}
	for _, ex := range base.Dev {
		baseQ[ex.GoldSQL] = ex.Question
	}
	for _, ex := range syn.Dev[:10] {
		if orig, ok := baseQ[ex.GoldSQL]; ok && orig == ex.Question {
			t.Fatalf("syn example unchanged: %q", ex.Question)
		}
	}
	real := SpiderRealistic()
	if len(real.Dev) == 0 {
		t.Fatal("realistic variant empty")
	}
	for _, ex := range real.Dev {
		if !ex.SchemaIndirect {
			t.Fatal("realistic examples must be marked SchemaIndirect")
		}
	}
	dk := SpiderDK()
	if len(dk.Dev) < 30 {
		t.Fatalf("dk variant too small: %d", len(dk.Dev))
	}
	for _, ex := range dk.Dev {
		if !ex.RequiresDK {
			t.Fatal("dk examples must be marked RequiresDK")
		}
	}
}

func TestScienceBenchmarkShape(t *testing.T) {
	b := Science()
	if len(b.Databases) != 3 {
		t.Fatalf("science databases = %d", len(b.Databases))
	}
	perDomain := map[string]int{}
	for _, ex := range b.Dev {
		perDomain[ex.DBName]++
	}
	for _, d := range []string{"oncomx", "cordis", "sdss"} {
		if perDomain[d] < 80 {
			t.Fatalf("science domain %s has %d examples", d, perDomain[d])
		}
	}
}

func TestQuestionsMentionValues(t *testing.T) {
	// Most questions should carry the literal value of their filters so
	// explanations can lexically overlap with them.
	b := Spider()
	withFilter := 0
	mentions := 0
	for _, ex := range b.Dev {
		if !strings.Contains(ex.GoldSQL, "WHERE") || !strings.Contains(ex.GoldSQL, "'") {
			continue
		}
		withFilter++
		start := strings.Index(ex.GoldSQL, "'")
		end := strings.Index(ex.GoldSQL[start+1:], "'")
		if end < 0 {
			continue
		}
		val := ex.GoldSQL[start+1 : start+1+end]
		if strings.Contains(strings.ToLower(ex.Question), strings.ToLower(val)) {
			mentions++
		}
	}
	if withFilter == 0 || mentions*10 < withFilter*6 {
		t.Fatalf("only %d/%d filtered questions mention their value", mentions, withFilter)
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

// TestGoldChecksLeaveNoIndexes builds fresh benchmarks, not the
// process-wide cached ones other tests query, and checks that generating
// them left no hash or sorted index on any database: the gold checks run
// on a snapshot view whose indexes go with it. An unexecutable gold
// statement must still fail the build.
func TestGoldChecksLeaveNoIndexes(t *testing.T) {
	for _, b := range []*Benchmark{buildSpider(), buildScience()} {
		for name, db := range b.Databases {
			for _, tbl := range db.Schema.Tables {
				for col := range tbl.Columns {
					if db.HasIndex(tbl.Name, col) || db.HasSorted(tbl.Name, col) {
						t.Errorf("%s/%s: %s.%s keeps an index built by a gold check", b.Name, name, tbl.Name, tbl.Columns[col].Name)
					}
				}
			}
		}
	}

	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "does not execute") {
			t.Fatalf("an unexecutable gold statement must panic, got %v", r)
		}
	}()
	mustExecute(goldExecutor(FlightDB()), newExample("bad-000", "flight_2", "q", "SELECT name FROM no_such_table"))
}
