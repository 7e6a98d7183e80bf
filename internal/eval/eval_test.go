package eval

import (
	"hash/fnv"
	"maps"
	"slices"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/sqlparse"
)

func TestEXDetectsEquivalenceAndDifference(t *testing.T) {
	db := datasets.FlightDB()
	gold := sqlparse.MustParse("SELECT count(*) FROM flight WHERE origin = 'Chicago'")
	same := sqlparse.MustParse("SELECT count(flno) FROM flight WHERE origin = 'Chicago'")
	diff := sqlparse.MustParse("SELECT count(*) FROM flight WHERE origin = 'Los Angeles'")
	if !EX(db, same, gold) {
		t.Fatal("count(flno) and count(*) must be EX-equal here")
	}
	if EX(db, diff, gold) {
		t.Fatal("different filters must not be EX-equal")
	}
	if EX(db, nil, gold) {
		t.Fatal("nil prediction is wrong")
	}
}

func TestEXFailingPredictionIsWrong(t *testing.T) {
	db := datasets.FlightDB()
	gold := sqlparse.MustParse("SELECT count(*) FROM flight")
	bad := sqlparse.MustParse("SELECT ghost FROM flight")
	if EX(db, bad, gold) {
		t.Fatal("non-executing prediction must be wrong")
	}
}

func TestEMDelegation(t *testing.T) {
	a := sqlparse.MustParse("SELECT name FROM t WHERE x = 1")
	b := sqlparse.MustParse("select NAME from T where x = 99")
	if !EM(a, b) {
		t.Fatal("EM must ignore case and values")
	}
}

// TS must be stricter than EX: a prediction that matches gold only by
// coincidence on the original data diverges on some distilled variant.
func TestTSCatchesCoincidentalMatches(t *testing.T) {
	db := datasets.FlightDB()
	suite := BuildSuite(db, 42)
	if len(suite.DBs) != SuiteSize+1 {
		t.Fatalf("suite size = %d", len(suite.DBs))
	}
	gold := sqlparse.MustParse("SELECT count(*) FROM flight WHERE origin = 'Chicago'")
	// On the original data both counts are 2: coincidental EX match.
	coincidence := sqlparse.MustParse("SELECT count(*) FROM flight WHERE destination = 'Honolulu'")
	if !EX(db, coincidence, gold) {
		t.Skip("fixture drifted; coincidence premise no longer holds")
	}
	if TSContext(t.Context(), suite, coincidence, gold) {
		t.Fatal("TS must catch the coincidental match on some variant")
	}
	if !TSContext(t.Context(), suite, gold, gold) {
		t.Fatal("gold must pass its own test suite")
	}
}

// TestBuildSuiteDeterministic rebuilds every Spider and Science
// database's suite in one process: the perturbations draw from one seeded
// source, so every build must produce the same rows in every variant.
func TestBuildSuiteDeterministic(t *testing.T) {
	for _, b := range []*datasets.Benchmark{datasets.Spider(), datasets.Science()} {
		for _, name := range slices.Sorted(maps.Keys(b.Databases)) {
			db := b.Databases[name]
			want := suiteDigest(BuildSuite(db, 7))
			for run := 0; run < 3; run++ {
				if got := suiteDigest(BuildSuite(db, 7)); got != want {
					t.Fatalf("%s/%s: rebuild %d digest %x, want %x", b.Name, name, run, got, want)
				}
			}
		}
	}
}

// suiteDigest hashes every row of every table of every suite database, in
// suite, schema and scan order.
func suiteDigest(s *Suite) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, db := range s.DBs {
		for _, name := range db.Schema.TableNames() {
			buf = append(buf[:0], name...)
			for _, row := range db.Table(name).Rows {
				buf = row.AppendKey(buf)
			}
			h.Write(buf)
		}
	}
	return h.Sum64()
}

func TestBuildSuiteDoesNotMutateOriginal(t *testing.T) {
	db := datasets.FlightDB()
	before := db.TotalRows()
	BuildSuite(db, 3)
	if db.TotalRows() != before {
		t.Fatal("BuildSuite must clone, not mutate")
	}
}

func TestCounterScores(t *testing.T) {
	var c Counter
	c.Add(true, true, false)
	c.Add(false, true, true)
	s := c.Scores()
	if s.N != 2 || s.EM != 50 || s.EX != 100 || s.TS != 50 {
		t.Fatalf("scores = %+v", s)
	}
	var empty Counter
	if empty.Scores().N != 0 {
		t.Fatal("empty counter")
	}
}
