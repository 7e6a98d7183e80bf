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
// hash-join build side, for single- and multi-key equi-joins alike.
// Indexes are found by their exact column sequence: (a, b) and (b, a) are
// distinct indexes, because the probe side encodes its key columns in the
// same order.
//
// The layout is packed and pointer-free, so the collector never scans an
// index's contents and a build allocates a few dozen objects whatever
// the row count: a Groups table (an open-addressing table of group
// numbers hashed with hash/maphash, and the group keys back to back in
// one byte slice) and the row positions in one compressed-sparse-row
// pair — group g's positions are pos[at[g]:at[g+1]]. A published index's
// probe table is sized to the distinct keys, not to the rows.
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
	"math/bits"
	"slices"

	"cyclesql/internal/sqltypes"
)

// Groups numbers distinct byte keys in first-seen order, from 0. It is
// the key half of a HashIndex and the executor's table for grouping,
// DISTINCT, set operations and IN member sets. The zero Groups is empty;
// Reset empties it and keeps its storage.
type Groups struct {
	// slots is an open-addressing table (linear probing) of group numbers
	// plus one; 0 marks a free slot. Its length is zero or a power of two,
	// at least twice the number of groups.
	slots []int32
	// Group g's key is keys[koff[g-1]:koff[g]], reading koff[-1] as 0.
	keys []byte
	koff []int32
}

// hashSeed seeds every probe table.
var hashSeed = maphash.MakeSeed()

// Len returns the number of groups.
func (gs *Groups) Len() int { return len(gs.koff) }

// Find returns key's group, or -1.
func (gs *Groups) Find(key []byte) int {
	g, _ := gs.find(key)
	return g
}

// Add returns key's group, opening group Len() for a new key, and reports
// whether it did. The table keeps a copy of key.
func (gs *Groups) Add(key []byte) (group int, added bool) {
	g, slot := gs.find(key)
	if g >= 0 {
		return g, false
	}
	gs.keys = append(gs.keys, key...)
	return gs.insert(slot), true
}

// Reset empties the table; an empty one clears nothing.
func (gs *Groups) Reset() {
	if len(gs.koff) > 0 {
		clear(gs.slots)
	}
	gs.keys, gs.koff = gs.keys[:0], gs.koff[:0]
}

// find returns the group whose key equals key, or -1 and the free slot
// where the key would go (-1 when the table has no slots yet).
func (gs *Groups) find(key []byte) (group, slot int) {
	if len(gs.slots) == 0 {
		return -1, -1
	}
	mask := uint64(len(gs.slots) - 1)
	for i := maphash.Bytes(hashSeed, key) & mask; ; i = (i + 1) & mask {
		s := gs.slots[i]
		if s == 0 {
			return -1, int(i)
		}
		if g := int(s - 1); bytes.Equal(gs.key(g), key) {
			return g, int(i)
		}
	}
}

// key returns group g's key.
func (gs *Groups) key(g int) []byte {
	lo := int32(0)
	if g > 0 {
		lo = gs.koff[g-1]
	}
	return gs.keys[lo:gs.koff[g]]
}

// insert opens a group for the bytes past the last group's key, which
// find reported absent with the given free slot, and returns its number.
// The probe table doubles whenever the groups would fill more than half
// of it.
func (gs *Groups) insert(slot int) int {
	g := len(gs.koff)
	gs.koff = append(gs.koff, int32(len(gs.keys)))
	if 2*(g+1) <= len(gs.slots) {
		gs.slots[slot] = int32(g + 1)
		return g
	}
	gs.slots = make([]int32, max(8, 2*len(gs.slots)))
	mask := uint64(len(gs.slots) - 1)
	for h := 0; h <= g; h++ {
		i := maphash.Bytes(hashSeed, gs.key(h)) & mask
		for gs.slots[i] != 0 {
			i = (i + 1) & mask
		}
		gs.slots[i] = int32(h + 1)
	}
	return g
}

// HashIndex is a hash index over an ordered tuple of columns of a stored
// table, or a join build side the executor rebuilds per execution. Its
// Groups is a named field, not embedded, so a published index, which is
// shared, has no method that changes it.
type HashIndex struct {
	indexHead
	groups Groups
	// Group g's row positions are pos[at[g]:at[g+1]], ascending. group is
	// Build's per-row scratch, kept only when Reserve sized it.
	at, pos, group []int32
}

// Lookup returns the positions of rows whose key columns encode to key,
// in ascending row order. The returned slice is shared and its capacity
// ends with it, so callers must not mutate it but may append to it. The
// lookup allocates nothing.
func (ix *HashIndex) Lookup(key []byte) []int32 {
	if g := ix.groups.Find(key); g >= 0 {
		return ix.pos[ix.at[g]:ix.at[g+1]:ix.at[g+1]]
	}
	return nil
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
func (ix *HashIndex) Distinct() int { return ix.groups.Len() }

// NonNull returns how many rows the index covers — rows whose every key
// column is non-NULL (the sum of all group sizes). Together with
// Distinct it yields the average group size NonNull/Distinct, the
// planner's equality selectivity estimate.
func (ix *HashIndex) NonNull() int { return len(ix.pos) }

// Reserve sizes ix so that a Build over up to n rows allocates nothing
// but key bytes, taking its probe table, offsets, positions and scratch
// from one allocation when they are short. A published index is built
// unreserved, so its probe table stays sized to its distinct keys.
func (ix *HashIndex) Reserve(n int) {
	slots := max(8, 1<<bits.Len(uint(max(2*n-1, 0)))) // a power of two, at least 2n
	if len(ix.groups.slots) < slots || cap(ix.pos) < n {
		buf := make([]int32, slots+4*n+1)
		ix.groups = Groups{slots: buf[:slots:slots], keys: ix.groups.keys[:0], koff: buf[slots : slots : slots+n]}
		buf = buf[slots+n:]
		ix.group, ix.at, ix.pos = buf[:0:n], buf[n:n:2*n+1], buf[2*n+1:2*n+1]
	}
}

// Build rebuilds ix over rows, grouped by the key encoding of the columns
// cols (hashKey), in the storage of its previous build. The caller sets
// indexHead.
func (ix *HashIndex) Build(rows []sqltypes.Row, cols []int) {
	gs := &ix.groups
	gs.Reset()
	// First pass: assign every row its group, -1 for a NULL key. A key is
	// encoded past the last group's key and stays there only when it opens
	// a group, so the build needs no key buffer.
	group, nonNull := slices.Grow(ix.group[:0], len(rows)), 0
	for _, row := range rows {
		lo := len(gs.keys)
		key, ok := hashKey(gs.keys, row, cols)
		gs.keys = key[:lo]
		g, slot := -1, 0
		if ok {
			if g, slot = gs.find(key[lo:]); g < 0 {
				gs.keys = key
				g = gs.insert(slot)
			}
			nonNull++
		}
		group = append(group, int32(g))
	}
	// Second pass: count each group's rows into at[g+1], sum the counts
	// into start offsets, then place the positions in scan order, using
	// at[g] as group g's cursor. The cursors end at the next group's
	// start, so shifting at right by one restores the offsets.
	n := gs.Len()
	ix.at = slices.Grow(ix.at[:0], n+1)[:n+1]
	clear(ix.at)
	ix.pos = slices.Grow(ix.pos[:0], nonNull)[:nonNull]
	for _, g := range group {
		if g >= 0 {
			ix.at[g+1]++
		}
	}
	for g := 1; g <= n; g++ {
		ix.at[g] += ix.at[g-1]
	}
	for ri, g := range group {
		if g >= 0 {
			ix.pos[ix.at[g]] = int32(ri)
			ix.at[g]++
		}
	}
	copy(ix.at[1:], ix.at[:n])
	ix.at[0] = 0
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
	ix := &HashIndex{indexHead: indexHead{cols: slices.Clone(cols), rows: len(rel.Rows)}}
	ix.Build(rel.Rows, ix.cols)
	return ix
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
