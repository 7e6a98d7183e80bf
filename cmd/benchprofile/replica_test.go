package main

import (
	"context"
	"fmt"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

func count(t *testing.T, db *storage.Database, sql string) int64 {
	t.Helper()
	rel, err := sqleval.New(db).ExecContext(context.Background(), sqlparse.MustParse(sql))
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rel.Rows[0][0].Int()
}

func TestReplicaInvariants(t *testing.T) {
	const k = 3
	bench := datasets.Spider()
	seen := map[string]bool{}
	for _, ex := range bench.Dev {
		if seen[ex.DBName] {
			continue
		}
		seen[ex.DBName] = true
		src := bench.DB(ex.DBName)
		rep, err := replicate(src, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range src.Schema.Tables {
			orig, got := src.Table(tab.Name).Rows, rep.Table(tab.Name).Rows
			if len(got) != k*len(orig) {
				t.Fatalf("%s.%s: %d rows, want %d", ex.DBName, tab.Name, len(got), k*len(orig))
			}
			for i, row := range orig {
				if string(row.AppendKey(nil)) != string(got[i].AppendKey(nil)) {
					t.Fatalf("%s.%s row %d: copy 0 holds %v, original %v", ex.DBName, tab.Name, i, got[i], row)
				}
			}
			q := "SELECT count(*) FROM " + tab.Name
			if n, want := count(t, rep, q), k*count(t, src, q); n != want {
				t.Errorf("%s: %s = %d, want %d", ex.DBName, q, n, want)
			}
		}
		for _, fk := range src.Schema.ForeignKeys {
			q := fmt.Sprintf("SELECT count(*) FROM %s AS a JOIN %s AS b ON a.%s = b.%s", fk.Table, fk.RefTable, fk.Column, fk.RefColumn)
			n, orig := count(t, rep, q), count(t, src, q)
			if orig == 0 {
				t.Errorf("%s: %s matches nothing in the original", ex.DBName, q)
			}
			if n != k*orig {
				t.Errorf("%s: %s = %d, want %d", ex.DBName, q, n, k*orig)
			}
		}
	}
	if len(seen) != 7 {
		t.Fatalf("checked %d dev databases, want 7", len(seen))
	}
}

func TestReplicaShiftsOnlyKeys(t *testing.T) {
	src := datasets.FlightDB()
	rep, err := replicate(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	first, copy1 := src.Table("flight").Rows[0], rep.Table("flight").Rows[src.NumRows("flight")]
	// flight(flno PK, aid FK, origin, destination)
	want := sqltypes.Row{
		sqltypes.NewInt(first[0].Int() + 1_000_000),
		sqltypes.NewInt(first[1].Int() + 1_000_000),
		first[2], first[3],
	}
	if string(copy1.AppendKey(nil)) != string(want.AppendKey(nil)) {
		t.Fatalf("copy 1 of %v is %v, want %v", first, copy1, want)
	}
	world := datasets.WorldDB()
	rep, err = replicate(world, 2)
	if err != nil {
		t.Fatal(err)
	}
	code := rep.Table("country").Rows[world.NumRows("country")][0].Text()
	if want := world.Table("country").Rows[0][0].Text() + "#1"; code != want {
		t.Fatalf("text key of copy 1 is %q, want %q", code, want)
	}
}
