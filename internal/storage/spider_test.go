package storage_test

import (
	"maps"
	"slices"
	"testing"

	"cyclesql/internal/datasets"
)

// TestSortedStatsMatchHashIndex pins that taking column statistics from
// the sorted index alone changes no statistic, and so no plan: over every
// column of every Spider database, the sorted index's Distinct and
// NonNull equal the hash index's, and ColStats reports them.
func TestSortedStatsMatchHashIndex(t *testing.T) {
	bench := datasets.Spider()
	columns := 0
	for _, name := range slices.Sorted(maps.Keys(bench.Databases)) {
		db := bench.DB(name).Clone()
		for _, table := range db.Schema.Tables {
			for col := range table.Columns {
				sx, ix := db.Sorted(table.Name, col), db.Index(table.Name, col)
				if sx.Distinct() != ix.Distinct() || sx.NonNull() != ix.NonNull() {
					t.Errorf("%s.%s.%s: sorted Distinct/NonNull %d/%d, hash %d/%d", name, table.Name,
						table.Columns[col].Name, sx.Distinct(), sx.NonNull(), ix.Distinct(), ix.NonNull())
				}
				c, ok := db.ColStats(table.Name, col)
				if !ok || c.Distinct != ix.Distinct() || c.NonNull != ix.NonNull() {
					t.Errorf("%s.%s.%s: ColStats %+v ok=%v, hash Distinct/NonNull %d/%d", name, table.Name,
						table.Columns[col].Name, c, ok, ix.Distinct(), ix.NonNull())
				}
				columns++
			}
		}
	}
	t.Logf("checked %d columns over %d databases", columns, len(bench.Databases))
}
