// Secondary indexes over stored tables: one hash-index type over an
// ordered column tuple (this file) and one sorted-index type over a
// single column (sorted.go), kept per table in one indexSet.
//
// A hash index groups a table's rows by the binary key encoding of a
// column tuple's values (sqltypes.Row.AppendCompareKeyCols — under which
// two tuples share a group exactly when the = operator treats every pair
// of values as equal; over one column it is Value.AppendCompareKey) and
// lists each group's row positions in scan order. The executor reads it
// both as a point-lookup structure (WHERE col = literal) and as a prebuilt
// hash-join build side — the exact buckets a join stage otherwise rebuilds
// per execution, for single- and multi-key equi-joins alike. Indexes are found
// by their exact column sequence: (a, b) and (b, a) are distinct indexes,
// because the probe side encodes its key columns in the same order.
//
// The layout is packed and pointer-free, so the collector never scans an
// index's contents and a build allocates a few dozen objects whatever
// the row count: an open-addressing table of group numbers hashed with
// hash/maphash, the group keys back to back in one byte slice with an
// offset per group, and the row positions in one compressed-sparse-row
// pair — group g's positions are pos[at[g]:at[g+1]]. The probe table is
// sized to the distinct keys, not to the rows.
//
// Every index kind shares one lifecycle, with one write rule: indexes are
// built lazily on first use and dropped by every write to their table —
// Insert drops its table's indexes, Mutate drops all of them — and the
// next probe rebuilds them. Clone starts the copy with no indexes, so the
// clone's perturbed contents can never read the original's buckets. A
// row-count check on every access catches direct Relation.Append misuse
// and triggers a rebuild.
//
// NULL values are never indexed: the = operator is NULL-rejecting, so a
// probe must not return NULL rows and a NULL probe key matches nothing. A
// NULL in any key column leaves the row out of the index.
//
// Lazy builds are safe under concurrent readers: lazyIndex publishes built
// indexes under the database's lock with a double-check, so parallel
// queries racing on a cold index either share one build or briefly build
// interchangeable copies. Probes stay lock-free — a published index is
// never mutated (a write drops it), and writes require reader exclusion.
package storage

import (
	"bytes"
	"hash/maphash"
	"slices"

	"cyclesql/internal/sqltypes"
)

// HashIndex is a hash index over an ordered tuple of columns of a stored
// table.
type HashIndex struct {
	indexHead
	// slots is an open-addressing table (linear probing) of group numbers
	// plus one; 0 marks a free slot. Its length is a power of two, at
	// least twice the number of groups.
	slots []int32
	// Group g's key is keys[koff[g]:koff[g+1]], and its row positions are
	// pos[at[g]:at[g+1]], ascending. Both offset slices end with the total
	// length, so each holds one entry more than there are groups.
	keys []byte
	koff []int32
	at   []int32
	pos  []int32
}

// hashSeed seeds every hash index's probe table.
var hashSeed = maphash.MakeSeed()

// Lookup returns the positions of rows whose key columns encode to key,
// in ascending row order. The returned slice is shared and its capacity
// ends with it, so callers must not mutate it but may append to it. The
// lookup allocates nothing.
func (ix *HashIndex) Lookup(key []byte) []int32 {
	g, _ := ix.find(key)
	if g < 0 {
		return nil
	}
	lo, hi := ix.at[g], ix.at[g+1]
	return ix.pos[lo:hi:hi]
}

// Distinct returns the number of distinct fully-non-NULL key tuples. It
// returns 0 both for an empty table and when every row holds a NULL in at
// least one key column — an index over either holds no groups at all.
// Callers asking "is there an index?" must test the *HashIndex for nil
// instead (Index never returns a non-nil index for an unknown table or
// column): a non-nil index with Distinct() == 0 is a real, up-to-date
// index that proves no probe can match. The cost-based planner
// (internal/stats) relies on exactly that reading — zero distinct keys
// means equality selects nothing, not "unknown".
func (ix *HashIndex) Distinct() int { return len(ix.koff) - 1 }

// NonNull returns how many rows the index covers — rows whose every key
// column is non-NULL (the sum of all group sizes). Together with
// Distinct it yields the average group size NonNull/Distinct, the
// planner's equality selectivity estimate.
func (ix *HashIndex) NonNull() int { return len(ix.pos) }

// find returns the group whose key equals key, or -1 and the free slot
// where the key would go (-1 when the table has no slots yet).
func (ix *HashIndex) find(key []byte) (group, slot int) {
	if len(ix.slots) == 0 {
		return -1, -1
	}
	mask := uint64(len(ix.slots) - 1)
	for i := maphash.Bytes(hashSeed, key) & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return -1, int(i)
		}
		if g := int(s - 1); bytes.Equal(ix.key(g), key) {
			return g, int(i)
		}
	}
}

// key returns group g's key.
func (ix *HashIndex) key(g int) []byte { return ix.keys[ix.koff[g]:ix.koff[g+1]] }

// addGroup appends a new group for key, which find reported absent with
// the given free slot, and returns its number. The probe table doubles
// whenever the groups would fill more than half of it.
func (ix *HashIndex) addGroup(key []byte, slot int) int {
	g := ix.Distinct()
	ix.keys = append(ix.keys, key...)
	ix.koff = append(ix.koff, int32(len(ix.keys)))
	if 2*(g+1) <= len(ix.slots) {
		ix.slots[slot] = int32(g + 1)
		return g
	}
	ix.slots = make([]int32, max(8, 2*len(ix.slots)))
	mask := uint64(len(ix.slots) - 1)
	for h := 0; h <= g; h++ {
		i := maphash.Bytes(hashSeed, ix.key(h)) & mask
		for ix.slots[i] != 0 {
			i = (i + 1) & mask
		}
		ix.slots[i] = int32(h + 1)
	}
	return g
}

func buildHashIndex(rel *sqltypes.Relation, cols []int) *HashIndex {
	ix := &HashIndex{
		indexHead: indexHead{cols: slices.Clone(cols), rows: len(rel.Rows)},
		koff:      []int32{0},
	}
	// First pass: assign every row its group, -1 for a NULL key.
	group := make([]int32, len(rel.Rows))
	var buf []byte
	for ri, row := range rel.Rows {
		key, ok := hashKey(buf[:0], row, ix.cols)
		buf = key
		if !ok {
			group[ri] = -1
			continue
		}
		g, slot := ix.find(key)
		if g < 0 {
			g = ix.addGroup(key, slot)
		}
		group[ri] = int32(g)
	}
	// Second pass: count each group's rows into at[g+1], sum the counts
	// into start offsets, then place the positions in scan order, using
	// at[g] as group g's cursor. The cursors end at the next group's
	// start, so shifting at right by one restores the offsets.
	n := ix.Distinct()
	ix.at = make([]int32, n+1)
	for _, g := range group {
		if g >= 0 {
			ix.at[g+1]++
		}
	}
	for g := 1; g <= n; g++ {
		ix.at[g] += ix.at[g-1]
	}
	ix.pos = make([]int32, ix.at[n])
	for ri, g := range group {
		if g >= 0 {
			ix.pos[ix.at[g]] = int32(ri)
			ix.at[g]++
		}
	}
	copy(ix.at[1:], ix.at[:n])
	ix.at[0] = 0
	return ix
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
// stays valid until the next write to the table, which drops it. Index
// is safe to call from concurrent readers (see lazyIndex). Only point
// probes, join build sides and join-key estimates call it: column
// statistics come from the sorted index (ColStats), so costing a column
// builds no hash index.
func (db *Database) Index(table string, cols ...int) *HashIndex {
	name := lowerName(table)
	rel := db.tables[name]
	if !validCols(rel, cols) {
		return nil
	}
	return db.lazyIndex(name, rel, false, cols, false).(*HashIndex)
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
	name := lowerName(table)
	rel := db.tables[name]
	if rel == nil {
		return false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.indexes[name].find(sorted, cols, len(rel.Rows)) != nil
}
