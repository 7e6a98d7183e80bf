// Secondary indexes over stored tables: one hash-index type over an
// ordered column tuple (this file) and one sorted-index type over a
// single column (sorted.go), kept per table in one indexSet.
//
// A hash index maps the binary key encoding of a column tuple's values
// (sqltypes.Row.AppendCompareKeyCols — under which two tuples share a
// bucket exactly when the = operator treats every pair of values as
// equal; over one column it is Value.AppendCompareKey) to the list of row
// positions holding that tuple, in scan order. The executor reads it both
// as a point-lookup structure (WHERE col = literal) and as a prebuilt
// hash-join build side — the exact buckets a join stage otherwise rebuilds
// per execution, for single- and multi-key equi-joins alike. Indexes are found
// by their exact column sequence: (a, b) and (b, a) are distinct indexes,
// because the probe side encodes its key columns in the same order.
//
// Every index kind shares one lifecycle. Indexes are built lazily on first
// use and then kept consistent with the table: Insert appends the new row
// to every built index of its table, Mutate drops all indexes (the
// callback rewrites values in place), and Clone starts the copy with no
// indexes so the clone's perturbed contents can never read the original's
// buckets. A row-count check on every access catches direct
// Relation.Append misuse and triggers a rebuild.
//
// NULL values are never indexed: the = operator is NULL-rejecting, so a
// probe must not return NULL rows and a NULL probe key matches nothing. A
// NULL in any key column leaves the row out of the index.
//
// Lazy builds are safe under concurrent readers: lazyIndex publishes built
// indexes under the database's lock with a double-check, so parallel
// queries racing on a cold index either share one build or briefly build
// interchangeable copies. Probes stay lock-free — a published index is
// immutable until the next write, and writes require reader exclusion.
package storage

import (
	"slices"

	"cyclesql/internal/sqltypes"
)

// HashIndex is a hash index over an ordered tuple of columns of a stored
// table.
type HashIndex struct {
	indexHead
	nonNull int // indexed rows (a NULL in any key column skips the row)
	groups  map[string][]int32
}

// Lookup returns the positions of rows whose key columns encode to key,
// in ascending row order. The returned slice is shared; callers must not
// mutate it. Probing with string(key) keeps the lookup allocation-free.
func (ix *HashIndex) Lookup(key []byte) []int32 { return ix.groups[string(key)] }

// Distinct returns the number of distinct fully-non-NULL key tuples. It
// returns 0 both for an empty table and when every row holds a NULL in at
// least one key column — an index over either holds no buckets at all.
// Callers asking "is there an index?" must test the *HashIndex for nil
// instead (Index never returns a non-nil index for an unknown table or
// column): a non-nil index with Distinct() == 0 is a real, up-to-date
// index that proves no probe can match. The cost-based planner
// (internal/stats) relies on exactly that reading — zero distinct keys
// means equality selects nothing, not "unknown".
func (ix *HashIndex) Distinct() int { return len(ix.groups) }

// NonNull returns how many rows the index covers — rows whose every key
// column is non-NULL (the sum of all bucket sizes). Together with
// Distinct it yields the average bucket size NonNull/Distinct, the
// planner's equality selectivity estimate.
func (ix *HashIndex) NonNull() int { return ix.nonNull }

func buildHashIndex(rel *sqltypes.Relation, cols []int) *HashIndex {
	ix := &HashIndex{
		indexHead: indexHead{cols: slices.Clone(cols), rows: len(rel.Rows)},
		groups:    make(map[string][]int32, len(rel.Rows)),
	}
	var buf []byte
	for ri, row := range rel.Rows {
		key, ok := hashKey(buf[:0], row, ix.cols)
		buf = key
		if ok {
			ix.groups[string(key)] = append(ix.groups[string(key)], int32(ri))
			ix.nonNull++
		}
	}
	return ix
}

func (ix *HashIndex) add(row sqltypes.Row, pos int) {
	ix.rows++
	if key, ok := hashKey(nil, row, ix.cols); ok {
		ix.groups[string(key)] = append(ix.groups[string(key)], int32(pos))
		ix.nonNull++
	}
}

// hashKey encodes the key columns of a row, reporting ok=false for NULL
// key values or rows too short to hold every column (direct Relation
// misuse).
func hashKey(dst []byte, row sqltypes.Row, cols []int) ([]byte, bool) {
	for _, c := range cols {
		if c >= len(row) {
			return dst, false
		}
	}
	return row.AppendCompareKeyCols(dst, cols)
}

// indexHead is what the lazy-publish path reads of every index kind.
type indexHead struct {
	cols []int // the ordered column tuple the index is over
	rows int   // relation rows covered; a mismatch triggers a rebuild
}

func (h *indexHead) head() *indexHead { return h }

// index is one built index of either kind.
type index interface {
	head() *indexHead
	// add appends one freshly inserted row at position pos.
	add(row sqltypes.Row, pos int)
}

// indexSet holds one table's built indexes: hash indexes found by their
// column tuple, sorted indexes by their one-column tuple. A Snapshot
// copies the set, so each slice has exactly one owner.
type indexSet struct {
	hash, sorted []index
}

// kind returns the slice holding the sorted or the hash indexes.
func (s *indexSet) kind(sorted bool) *[]index {
	if sorted {
		return &s.sorted
	}
	return &s.hash
}

// find returns the index of the kind over exactly cols if it covers rows,
// else nil. A nil set finds nothing.
func (s *indexSet) find(sorted bool, cols []int, rows int) index {
	if s == nil {
		return nil
	}
	for _, ix := range *s.kind(sorted) {
		if h := ix.head(); h.rows == rows && slices.Equal(h.cols, cols) {
			return ix
		}
	}
	return nil
}

// put publishes ix, replacing a stale index over the same columns.
func (s *indexSet) put(sorted bool, ix index) {
	list := s.kind(sorted)
	for i, old := range *list {
		if slices.Equal(old.head().cols, ix.head().cols) {
			(*list)[i] = ix
			return
		}
	}
	*list = append(*list, ix)
}

// add maintains every index in the set for one inserted row.
func (s *indexSet) add(row sqltypes.Row, pos int) {
	if s == nil {
		return
	}
	for _, ix := range s.hash {
		ix.add(row, pos)
	}
	for _, ix := range s.sorted {
		ix.add(row, pos)
	}
}

// clone copies the set's slices; the index objects are shared.
func (s *indexSet) clone() *indexSet {
	return &indexSet{hash: slices.Clone(s.hash), sorted: slices.Clone(s.sorted)}
}

// lazyIndex returns the published index of the kind over cols for the
// named table, building and publishing one when none covers rel's current
// rows. The caller has checked cols against rel. Unless locked says the
// caller holds db.mu for writing, the build runs outside the lock — it
// only reads the relation, which is stable while readers are active — and
// publishes under it with a double check, so racing readers share the
// published index or build interchangeable copies of which one wins.
func (db *Database) lazyIndex(name string, rel *sqltypes.Relation, sorted bool, cols []int, locked bool) index {
	var built index
	if !locked {
		db.mu.RLock()
		ix := db.indexes[name].find(sorted, cols, len(rel.Rows))
		db.mu.RUnlock()
		if ix != nil {
			return ix
		}
		built = buildIndex(rel, sorted, cols)
		db.mu.Lock()
		defer db.mu.Unlock()
	}
	set := db.indexes[name]
	if ix := set.find(sorted, cols, len(rel.Rows)); ix != nil {
		return ix
	}
	if built == nil {
		built = buildIndex(rel, sorted, cols)
	}
	if set == nil {
		if db.indexes == nil {
			db.indexes = make(map[string]*indexSet)
		}
		set = &indexSet{}
		db.indexes[name] = set
	}
	set.put(sorted, built)
	return built
}

func buildIndex(rel *sqltypes.Relation, sorted bool, cols []int) index {
	if sorted {
		return buildSortedIndex(rel, cols[0])
	}
	return buildHashIndex(rel, cols)
}

// validCols reports whether rel exists and cols is a non-empty tuple of
// its columns.
func validCols(rel *sqltypes.Relation, cols []int) bool {
	if rel == nil || len(cols) == 0 {
		return false
	}
	for _, c := range cols {
		if c < 0 || c >= len(rel.Columns) {
			return false
		}
	}
	return true
}

// Index returns the hash index over an ordered column tuple of a table,
// building it on first use; a single column is a 1-tuple. It returns nil
// for unknown tables, out-of-range columns or an empty tuple. The index
// stays valid until the next Mutate; Insert maintains it in place. Index
// is safe to call from concurrent readers (see lazyIndex).
func (db *Database) Index(table string, cols ...int) *HashIndex {
	rel := db.Table(table)
	if !validCols(rel, cols) {
		return nil
	}
	return db.lazyIndex(lowerName(table), rel, false, cols, false).(*HashIndex)
}

// HasIndex reports whether a built, up-to-date hash index exists for the
// exact column sequence. It never builds one; tests use it to observe
// invalidation.
func (db *Database) HasIndex(table string, cols ...int) bool {
	return db.hasIndex(table, false, cols)
}

// hasIndex reports whether an up-to-date index of the kind over cols is
// published.
func (db *Database) hasIndex(table string, sorted bool, cols []int) bool {
	rel := db.Table(table)
	if rel == nil {
		return false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.indexes[lowerName(table)].find(sorted, cols, len(rel.Rows)) != nil
}
