package explain

import (
	"context"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/provenance"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/storage"
)

// fixtureProvenances tracks the package's fixture queries: the paper's
// motivating example, the grouped HAVING query of Table IV Q5, the
// INTERSECT of Table IV Q3 and an empty result.
func fixtureProvenances(t testing.TB) (*Explainer, []*provenance.Provenance) {
	t.Helper()
	flight, world := datasets.FlightDB(), datasets.WorldDB()
	fixtures := []struct {
		db  *storage.Database
		sql string
	}{
		{flight, "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'"},
		{world, "SELECT count(T2.language), T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode GROUP BY T1.name HAVING count(*) > 2"},
		{world, "SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'English' INTERSECT SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 ON T1.code = T2.countrycode WHERE T2.language = 'French'"},
		{world, "SELECT name FROM country WHERE continent = 'Atlantis'"},
	}
	var provs []*provenance.Provenance
	for _, f := range fixtures {
		stmt := sqlparse.MustParse(f.sql)
		rel, err := sqleval.New(f.db).ExecContext(context.Background(), stmt)
		if err != nil {
			t.Fatalf("exec %q: %v", f.sql, err)
		}
		prov, err := provenance.NewTracker(f.db).TrackContext(context.Background(), stmt, rel, 0)
		if err != nil {
			t.Fatal(err)
		}
		provs = append(provs, prov)
	}
	// The explainer's database only names the join phrases' tables; every
	// fixture but the first is a world query.
	return New(world), provs
}

// fromProvenanceAllocs is the measured warm allocation count of explaining
// all four fixture provenances once: per explanation its Explanation,
// Steps and Text, plus the two annotation strings that render SQL, the
// HAVING threshold and the qualified count argument.
const fromProvenanceAllocs = 14

// TestFromProvenanceAllocGate holds warm FromProvenance to its measured
// allocation count: every stage appends into one pooled buffer, so an
// explanation allocates only its results. Skipped under -race, where
// sync.Pool drops pooled values at random.
func TestFromProvenanceAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is randomized under -race")
	}
	e, provs := fixtureProvenances(t)
	got := testing.AllocsPerRun(100, func() {
		for _, p := range provs {
			if _, err := e.FromProvenance(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("warm FromProvenance over %d fixtures: %.0f allocs", len(provs), got)
	if got > fromProvenanceAllocs {
		t.Fatalf("FromProvenance allocates %.0f times over the fixtures, gate is %d", got, fromProvenanceAllocs)
	}
}

func BenchmarkFromProvenance(b *testing.B) {
	e, provs := fixtureProvenances(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range provs {
			_, _ = e.FromProvenance(p)
		}
	}
}
