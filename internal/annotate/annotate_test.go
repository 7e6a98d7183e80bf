package annotate

import (
	"context"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/provenance"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
)

func annotateSQL(t *testing.T, sql string) []Annotation {
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
	if len(prov.Parts) == 0 {
		return nil
	}
	return Append(nil, prov.Parts[0].Core)
}

func kinds(anns []Annotation) map[Kind]int {
	out := map[Kind]int{}
	for _, a := range anns {
		out[a.Kind]++
	}
	return out
}

func TestAnnotatePaperExample(t *testing.T) {
	anns := annotateSQL(t, "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'")
	k := kinds(anns)
	if k[KindAggregate] != 1 || k[KindFilter] != 1 || k[KindJoin] != 1 {
		t.Fatalf("kinds = %v", k)
	}
	for _, a := range anns {
		switch a.Kind {
		case KindFilter:
			if a.Table != "T2" || a.Column != "name" || a.Value != "Airbus A340-300" || a.Op != "=" {
				t.Fatalf("filter annotation: %+v", a)
			}
		case KindAggregate:
			if a.Func != "count" || a.Arg != "*" || a.Anchored() {
				t.Fatalf("aggregate annotation must be table-level: %+v", a)
			}
		}
	}
}

func TestAnnotateGroupHavingOrder(t *testing.T) {
	anns := annotateSQL(t, "SELECT origin, count(*) FROM flight GROUP BY origin HAVING count(*) > 1 ORDER BY count(*) DESC LIMIT 1")
	k := kinds(anns)
	if k[KindGroup] != 1 || k[KindHaving] != 1 || k[KindOrder] != 1 || k[KindProjection] != 1 {
		t.Fatalf("kinds = %v", k)
	}
	for _, a := range anns {
		if a.Kind == KindOrder {
			if !a.Desc || a.Limit != "1" || a.Key != "COUNT(*)" {
				t.Fatalf("order annotation: %+v", a)
			}
		}
		if a.Kind == KindHaving && (a.Op != ">" || a.Func != "count" || a.Arg != "" || a.Value != "1") {
			t.Fatalf("having annotation: %+v", a)
		}
	}
}

func TestAnnotateMembershipAndPattern(t *testing.T) {
	anns := annotateSQL(t, "SELECT name FROM aircraft WHERE aid NOT IN (SELECT aid FROM flight) AND name LIKE 'B%'")
	k := kinds(anns)
	if k[KindMembership] != 1 || k[KindPattern] != 1 {
		t.Fatalf("kinds = %v", k)
	}
	for _, a := range anns {
		if a.Kind == KindMembership {
			if !a.Not || !a.Subquery || a.Value != "aid" {
				t.Fatalf("membership annotation: %+v", a)
			}
		}
	}
}

func TestAnnotateDisjunction(t *testing.T) {
	anns := annotateSQL(t, "SELECT count(*) FROM flight WHERE origin = 'Chicago' OR destination = 'Tokyo'")
	disjuncts := 0
	for _, a := range anns {
		if a.Disjunct {
			disjuncts++
		}
	}
	if disjuncts != 2 {
		t.Fatalf("disjunct annotations = %d", disjuncts)
	}
}

func TestAnnotateRangeAndNull(t *testing.T) {
	anns := annotateSQL(t, "SELECT name FROM aircraft WHERE distance BETWEEN 1000 AND 5000")
	if kinds(anns)[KindRange] != 1 {
		t.Fatalf("range missing: %v", kinds(anns))
	}
	anns = annotateSQL(t, "SELECT T2.flno FROM aircraft AS T1 LEFT JOIN flight AS T2 ON T1.aid = T2.aid WHERE T2.flno IS NULL")
	if kinds(anns)[KindNullCheck] != 1 {
		t.Fatalf("nullcheck missing: %v", kinds(anns))
	}
}

func TestAnnotateDistinct(t *testing.T) {
	anns := annotateSQL(t, "SELECT DISTINCT origin FROM flight")
	if kinds(anns)[KindDistinct] != 1 {
		t.Fatalf("distinct missing: %v", kinds(anns))
	}
}

func TestAnnotateCompoundParts(t *testing.T) {
	db := datasets.WorldDB()
	stmt := sqlparse.MustParse("SELECT name FROM country WHERE continent = 'Europe' INTERSECT SELECT name FROM country WHERE population > 1000000")
	rel, err := sqleval.New(db).ExecContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := provenance.NewTracker(db).TrackContext(context.Background(), stmt, rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prov.Parts) != 2 {
		t.Fatalf("compound provenance parts = %d", len(prov.Parts))
	}
	for i, want := range []string{"Europe", "1000000"} {
		anns := Append(nil, prov.Parts[i].Core)
		if k := kinds(anns); k[KindFilter] != 1 || k[KindProjection] != 1 {
			t.Fatalf("part %d kinds = %v", i, k)
		}
		for _, a := range anns {
			if a.Kind == KindFilter && a.Value != want {
				t.Fatalf("part %d filter value = %q, want %q", i, a.Value, want)
			}
		}
	}
}
