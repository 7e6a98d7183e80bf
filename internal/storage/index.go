// Secondary hash indexes over stored tables. An index maps the binary key
// encoding of one column's values (sqltypes.Value.AppendCompareKey — under
// which two values share a bucket exactly when the = operator treats them
// as equal; its text path reuses AppendKey) to the list of row positions
// holding that value, in scan order.
//
// Indexes are built lazily on first use and then kept consistent with the
// table: Insert appends the new row to every built index of its table,
// Mutate drops all indexes (the callback rewrites values in place), and
// Clone starts the copy with no indexes so the clone's perturbed contents
// can never read the original's buckets. A row-count check on every access
// catches direct Relation.Append misuse and triggers a rebuild.
//
// NULL values are never indexed: the = operator is NULL-rejecting, so a
// probe must not return NULL rows and a NULL probe key matches nothing.
//
// Lazy builds are safe under concurrent readers: Index publishes built
// indexes under the database's lock with a double-check, so parallel
// queries racing on a cold index either share one build or briefly build
// interchangeable copies. Lookup stays lock-free — a published index is
// immutable until the next write, and writes require reader exclusion.
package storage

import (
	"strings"

	"cyclesql/internal/sqltypes"
)

// ColumnIndex is a hash index over one column of a stored table. The
// executor treats it both as a point-lookup structure (WHERE col = literal)
// and as a prebuilt hash-join build side (groups row positions by key, the
// exact shape execJoin otherwise rebuilds per execution).
type ColumnIndex struct {
	column  int
	rows    int // relation rows covered; mismatch triggers a rebuild
	nonNull int // indexed rows (NULL values are never indexed)
	groups  map[string][]int32
}

// Lookup returns the positions of rows whose column value encodes to key,
// in ascending row order. The returned slice is shared; callers must not
// mutate it. Probing with string(key) keeps the lookup allocation-free.
func (ix *ColumnIndex) Lookup(key []byte) []int32 { return ix.groups[string(key)] }

// Distinct returns the number of distinct non-NULL keys in the index. It
// returns 0 both for an empty table and for a column whose every value is
// NULL — an index over either holds no buckets at all. Callers asking
// "is there an index?" must test the *ColumnIndex for nil instead (Index
// never returns a non-nil index for an unknown table or column): a
// non-nil index with Distinct() == 0 is a real, up-to-date index that
// proves no probe can match. The cost-based planner (internal/stats)
// relies on exactly that reading — zero distinct keys means equality
// selects nothing, not "unknown".
func (ix *ColumnIndex) Distinct() int { return len(ix.groups) }

// NonNull returns how many rows the index covers with a non-NULL value —
// the sum of all bucket sizes. Together with Distinct it yields the
// average bucket size NonNull/Distinct, the planner's equality
// selectivity estimate.
func (ix *ColumnIndex) NonNull() int { return ix.nonNull }

func buildColumnIndex(rel *sqltypes.Relation, col int) *ColumnIndex {
	ix := &ColumnIndex{
		column: col,
		rows:   len(rel.Rows),
		groups: make(map[string][]int32, len(rel.Rows)),
	}
	var buf []byte
	for ri, row := range rel.Rows {
		if col >= len(row) {
			continue
		}
		key, ok := row[col].AppendCompareKey(buf[:0])
		if !ok {
			continue
		}
		buf = key
		ix.groups[string(key)] = append(ix.groups[string(key)], int32(ri))
		ix.nonNull++
	}
	return ix
}

// add appends one freshly inserted row to the index.
func (ix *ColumnIndex) add(row sqltypes.Row, pos int) {
	ix.rows++
	if ix.column >= len(row) {
		return
	}
	key, ok := row[ix.column].AppendCompareKey(nil)
	if !ok {
		return
	}
	ix.groups[string(key)] = append(ix.groups[string(key)], int32(pos))
	ix.nonNull++
}

// Index returns the hash index for one column of a table, building it on
// first use. It returns nil for unknown tables or out-of-range columns.
// The index stays valid until the next Mutate; Insert maintains it in
// place. Index is safe to call from concurrent readers: the lazy build is
// double-checked under the database lock, so racing probes either share
// the published index or build interchangeable copies of which one wins.
func (db *Database) Index(table string, col int) *ColumnIndex {
	rel := db.Table(table)
	if rel == nil || col < 0 || col >= len(rel.Columns) {
		return nil
	}
	name := strings.ToLower(table)
	db.mu.RLock()
	ix := db.indexes[name][col]
	db.mu.RUnlock()
	if ix != nil && ix.rows == len(rel.Rows) {
		return ix
	}
	// Build outside the write lock — construction only reads the relation,
	// which is stable while readers are active — then publish under it.
	built := buildColumnIndex(rel, col)
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.indexLocked(name, rel, col, built)
}

// indexLocked returns the published up-to-date hash index for the column,
// else publishes built, building it first when nil. Must be called with
// db.mu held.
func (db *Database) indexLocked(name string, rel *sqltypes.Relation, col int, built *ColumnIndex) *ColumnIndex {
	if ix := db.indexes[name][col]; ix != nil && ix.rows == len(rel.Rows) {
		// Another goroutine published an up-to-date index first; share it.
		return ix
	}
	if built == nil {
		built = buildColumnIndex(rel, col)
	}
	if db.indexes == nil {
		db.indexes = make(map[string]map[int]*ColumnIndex)
	}
	byCol := db.indexes[name]
	if byCol == nil {
		byCol = make(map[int]*ColumnIndex)
		db.indexes[name] = byCol
	}
	byCol[col] = built
	return built
}

// HasIndex reports whether a built index currently exists for the column.
// It never builds one; tests use it to observe invalidation.
func (db *Database) HasIndex(table string, col int) bool {
	rel := db.Table(table)
	if rel == nil {
		return false
	}
	db.mu.RLock()
	ix := db.indexes[strings.ToLower(table)][col]
	db.mu.RUnlock()
	return ix != nil && ix.rows == len(rel.Rows)
}

// Index maintenance on Insert and wholesale invalidation on Mutate live
// inline in those writers (storage.go): both must happen in the same
// critical section as the copy-on-write table swap so a Snapshot taken at
// any instant sees a consistent store.
