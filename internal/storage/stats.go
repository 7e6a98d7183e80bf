// Per-column statistics for the cost-based planner, derived entirely from
// the secondary indexes this package already maintains: the hash index
// supplies NonNull and Distinct, the sorted index supplies the Min/Max
// span. Deriving instead of counting separately means statistics inherit
// the full index lifecycle for free — maintained on Insert, invalidated
// with the indexes on Mutate, never shared with clones, and shared into
// copy-on-write snapshots until the first divergent write. There is no
// staleness to reason about: ColStats reads whatever the indexes say right
// now, and the indexes are exact.
package storage

import (
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/stats"
)

// ColStats returns planner statistics for one column of a table, building
// the column's hash and sorted indexes on first use (the same lazy
// double-checked build every probe uses — a query compiled with cost-based
// planning warms the very indexes its plan will probe). It reports
// ok=false only for unknown tables or out-of-range columns; an empty
// table or an all-NULL column yields ok=true with zero counts, which the
// estimators read as "equality selects nothing", not "unknown".
//
// A live database's rows and indexes change under Insert, which holds the
// write lock, so ColStats reads them, and builds missing indexes, under
// that lock; snapshot views are immutable and take lazyIndex's
// double-checked path.
func (db *Database) ColStats(table string, col int) (stats.Column, bool) {
	live := db.origin == nil
	if live {
		db.mu.Lock()
		defer db.mu.Unlock()
	}
	name := lowerName(table)
	rel := db.tables[name]
	cols := []int{col}
	if !validCols(rel, cols) {
		return stats.Column{}, false
	}
	ix := db.lazyIndex(name, rel, false, cols, live).(*HashIndex)
	sx := db.lazyIndex(name, rel, true, cols, live).(*SortedIndex)
	return columnStats(rel, ix, sx), true
}

// columnStats derives one column's statistics from its indexes.
func columnStats(rel *sqltypes.Relation, ix *HashIndex, sx *SortedIndex) stats.Column {
	c := stats.Column{
		Rows:     len(rel.Rows),
		NonNull:  ix.NonNull(),
		Distinct: ix.Distinct(),
	}
	if minV, ok := sx.Min(); ok {
		maxV, _ := sx.Max()
		c.HasBounds = true
		c.Min, c.Max = minV, maxV
	}
	return c
}
