// Sorted secondary indexes over stored tables. A SortedIndex keeps one
// column's row positions ordered by the total value order sqltypes.Compare
// defines (NULL first, numerics — compared across the INTEGER/REAL divide —
// before text), with ties broken by row position. That tie-break is load-
// bearing: a range span therefore lists equal-valued rows in scan order,
// which is exactly the order a stable ORDER BY sort would leave them in, so
// the executor can stream ordered output straight off the index and stay
// bit-identical to the sort-based path.
//
// Range probes serve the comparison operators: <, <=, >, >= and BETWEEN
// all evaluate via sqltypes.Compare and reject NULL operands, so a span
// computed with the same Compare over the non-NULL suffix of the index
// returns exactly the rows the scan-and-filter path would keep.
//
// Sorted indexes share the hash indexes' lifecycle and lazy-publish path
// (index.go): every write to the table drops them, and the next use
// rebuilds them. Equal values are adjacent, so the build also counts the
// column's distinct non-NULL values — the runs of Compare-equal values;
// Compare equality is the = operator's equality, so the count equals a
// hash index's Distinct over the column.
package storage

import (
	"sort"

	"cyclesql/internal/sqltypes"
)

// SortedIndex is an ordered index over one column of a stored table.
type SortedIndex struct {
	indexHead
	column int
	rel    *sqltypes.Relation
	// pos holds every row position, ordered by (Compare(value), position).
	// NULL values (and rows too short to hold the column) occupy the first
	// nulls entries — Compare sorts NULL before everything.
	pos      []int32
	nulls    int
	distinct int // runs of Compare-equal non-NULL values
}

// value reads the indexed column of one row, treating rows too short to
// hold the column as NULL (only possible through direct Relation misuse).
func (ix *SortedIndex) value(ri int32) sqltypes.Value {
	row := ix.rel.Rows[ri]
	if ix.column >= len(row) {
		return sqltypes.Null()
	}
	return row[ix.column]
}

// Positions returns every row position ordered by (value, position), NULL
// rows first — the streaming order of ORDER BY <col> ASC. The slice is
// shared; callers must not mutate it.
func (ix *SortedIndex) Positions() []int32 { return ix.pos }

// NullCount returns how many leading positions hold NULL (or missing)
// values.
func (ix *SortedIndex) NullCount() int { return ix.nulls }

// NonNull returns how many rows hold a non-NULL value in the column.
func (ix *SortedIndex) NonNull() int { return len(ix.pos) - ix.nulls }

// Distinct returns the number of distinct non-NULL values in the column,
// 0 for an empty table or an all-NULL column. It equals the Distinct of a
// hash index over the column.
func (ix *SortedIndex) Distinct() int { return ix.distinct }

// Min returns the smallest non-NULL value in the index, ok=false when the
// column holds no non-NULL values (empty table or all NULL).
func (ix *SortedIndex) Min() (sqltypes.Value, bool) {
	if ix.nulls >= len(ix.pos) {
		return sqltypes.Null(), false
	}
	return ix.value(ix.pos[ix.nulls]), true
}

// Max returns the largest non-NULL value in the index, ok=false when the
// column holds no non-NULL values.
func (ix *SortedIndex) Max() (sqltypes.Value, bool) {
	if ix.nulls >= len(ix.pos) {
		return sqltypes.Null(), false
	}
	return ix.value(ix.pos[len(ix.pos)-1]), true
}

// Range returns the positions of rows whose non-NULL column value lies
// within the given bounds, ordered by (value, position). A nil bound is
// unbounded on that side; Incl selects <= / >= over < / >. NULL rows are
// never part of a span: every comparison operator rejects NULL operands.
// The returned slice is shared; callers must not mutate it.
func (ix *SortedIndex) Range(lo, hi *sqltypes.Value, loIncl, hiIncl bool) []int32 {
	span := ix.pos[ix.nulls:]
	start := 0
	if lo != nil {
		want := 0
		if !loIncl {
			want = 1
		}
		start = sort.Search(len(span), func(i int) bool {
			return sqltypes.Compare(ix.value(span[i]), *lo) >= want
		})
	}
	end := len(span)
	if hi != nil {
		want := 1
		if !hiIncl {
			want = 0
		}
		end = sort.Search(len(span), func(i int) bool {
			return sqltypes.Compare(ix.value(span[i]), *hi) >= want
		})
	}
	if end < start {
		end = start
	}
	return span[start:end]
}

func buildSortedIndex(rel *sqltypes.Relation, col int) *SortedIndex {
	ix := &SortedIndex{
		indexHead: indexHead{cols: []int{col}, rows: len(rel.Rows)},
		column:    col,
		rel:       rel,
		pos:       make([]int32, len(rel.Rows)),
	}
	for i := range ix.pos {
		ix.pos[i] = int32(i)
	}
	sort.Slice(ix.pos, func(a, b int) bool {
		if c := sqltypes.Compare(ix.value(ix.pos[a]), ix.value(ix.pos[b])); c != 0 {
			return c < 0
		}
		return ix.pos[a] < ix.pos[b]
	})
	for ix.nulls < len(ix.pos) && ix.value(ix.pos[ix.nulls]).IsNull() {
		ix.nulls++
	}
	for i := ix.nulls; i < len(ix.pos); i++ {
		if i == ix.nulls || sqltypes.Compare(ix.value(ix.pos[i-1]), ix.value(ix.pos[i])) != 0 {
			ix.distinct++
		}
	}
	return ix
}

// Sorted returns the ordered index for one column of a table, building it
// on first use. It returns nil for unknown tables or out-of-range columns.
// Like Index, it is safe to call from concurrent readers (see lazyIndex).
func (db *Database) Sorted(table string, col int) *SortedIndex {
	name := lowerName(table)
	rel := db.tables[name]
	cols := []int{col}
	if !validCols(rel, cols) {
		return nil
	}
	return db.lazyIndex(name, rel, true, cols, false).(*SortedIndex)
}

// HasSorted reports whether a built, up-to-date sorted index exists for
// the column. It never builds one; tests use it to observe invalidation.
func (db *Database) HasSorted(table string, col int) bool {
	return db.hasIndex(table, true, []int{col})
}
