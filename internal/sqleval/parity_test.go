package sqleval_test

import (
	"context"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqltypes"
)

// TestSpiderDevJoinParity executes every gold query of a Spider dev slice
// through all three access paths — secondary-index probes and index-backed
// build sides (the default), index-free hash equi-joins with filter
// pushdown, and the nested-loop fallback — and requires identical
// relations (same columns, rows, and row order), the acceptance bar for
// the compiled engine.
func TestSpiderDevJoinParity(t *testing.T) {
	bench := datasets.Spider()
	dev := bench.Dev
	if len(dev) > 200 {
		dev = dev[:200]
	}
	checked := 0
	for _, ex := range dev {
		db := bench.DB(ex.DBName)
		indexed, err := sqleval.New(db).ExecContext(context.Background(), ex.Gold)
		if err != nil {
			t.Fatalf("indexed path %q: %v", ex.GoldSQL, err)
		}
		scan := sqleval.New(db)
		scan.NoIndexes = true
		hash, err := scan.ExecContext(context.Background(), ex.Gold)
		if err != nil {
			t.Fatalf("hash path %q: %v", ex.GoldSQL, err)
		}
		nl := sqleval.New(db)
		nl.NestedLoopOnly = true
		loop, err := nl.ExecContext(context.Background(), ex.Gold)
		if err != nil {
			t.Fatalf("nested-loop path %q: %v", ex.GoldSQL, err)
		}
		if !identical(indexed, hash) {
			t.Fatalf("index and scan paths diverge for %q:\nindexed:\n%s\nscan:\n%s", ex.GoldSQL, indexed, hash)
		}
		if !identical(hash, loop) {
			t.Fatalf("join paths diverge for %q:\nhash:\n%s\nnested loop:\n%s", ex.GoldSQL, hash, loop)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no dev examples checked")
	}
	t.Logf("checked %d dev queries through 3 access paths", checked)
}

func identical(a, b *sqltypes.Relation) bool {
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		return false
	}
	for i, c := range a.Columns {
		if b.Columns[i] != c {
			return false
		}
	}
	for ri, row := range a.Rows {
		for ci, v := range row {
			if sqltypes.Compare(v, b.Rows[ri][ci]) != 0 {
				return false
			}
		}
	}
	return true
}
