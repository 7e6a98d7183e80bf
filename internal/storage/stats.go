// Per-column statistics for the cost-based planner, derived entirely from
// the column's sorted index: it supplies NonNull, Distinct (its count of
// Compare-equal runs, which equals a hash index's group count) and the
// Min/Max span. Deriving instead of counting separately means statistics
// inherit the index lifecycle for free — dropped with the indexes on
// every write and rebuilt on the next read, never shared with clones, and
// shared into copy-on-write snapshots until the first divergent write.
// There is no staleness to reason about: ColStats reads whatever the index
// says right now, and the index is exact. Costing a column builds no hash
// index; one is built only where a point probe, a join build side or a
// join-key estimate asks for it.
package storage

import (
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/stats"
)

// ColStats returns planner statistics for one column of a table, building
// the column's sorted index on first use (the same lazy double-checked
// build every probe uses — a query compiled with cost-based planning
// warms the very index its range or ORDER BY plan will read). It builds
// no hash index. It reports ok=false only for unknown tables or
// out-of-range columns; an empty table or an all-NULL column yields
// ok=true with zero counts, which the estimators read as "equality
// selects nothing", not "unknown".
//
// A live database's rows and indexes change under Insert, which holds the
// write lock, so ColStats reads them, and builds a missing index, under
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
	sx := db.lazyIndex(name, rel, true, cols, live).(*SortedIndex)
	return columnStats(rel, sx), true
}

// columnStats derives one column's statistics from its sorted index.
func columnStats(rel *sqltypes.Relation, sx *SortedIndex) stats.Column {
	c := stats.Column{
		Rows:     len(rel.Rows),
		NonNull:  sx.NonNull(),
		Distinct: sx.Distinct(),
	}
	if minV, ok := sx.Min(); ok {
		maxV, _ := sx.Max()
		c.HasBounds = true
		c.Min, c.Max = minV, maxV
	}
	return c
}
