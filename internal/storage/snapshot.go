// Copy-on-write snapshots. A Snapshot is an immutable point-in-time view
// of a Database, pinned in O(tables): it shares the live store's relation
// pointers and every secondary index built so far, instead of deep-copying
// rows the way Clone does. The serving layer pins one snapshot per
// request, so concurrent reads never block on — and are never torn by —
// writers to the live store.
//
// The contract is epoch-versioned copy-on-write:
//
//   - Snapshot() bumps the database epoch, marks every table as shared,
//     and returns a frozen view. The view is itself a *Database (exposed
//     via Snapshot.DB), so executors, explainers, pipelines and the eval
//     metrics consume it unchanged; its lazy index builds work normally
//     under its own lock, and writes to it are rejected.
//   - The first write to a shared table (Insert, Mutate) copies that
//     table before touching it — Insert copies only the row-header slice
//     (it appends, never rewrites, so row contents stay shared), Mutate
//     deep-copies the rows it is about to rewrite — swaps the copy into
//     the live table map and bumps the epoch. Like every write, it drops
//     the live store's indexes for the table; the view keeps the index
//     objects it shares, which no write mutates. Later writes to the
//     now-owned table pay nothing extra until the next Snapshot re-shares
//     it.
//
// So a snapshot pin costs O(tables + built indexes) regardless of row
// count, writers pay the copy only once per table per snapshot
// generation, and a store nobody snapshots behaves exactly as before:
// Insert appends in place and never copies.
//
// Concurrency: Snapshot() and the writers serialize on the database lock,
// so a snapshot can be taken while writers are active and never captures
// a half-applied write. Reads through a Snapshot are safe concurrently
// with live writers by construction — writers replace shared relations
// instead of mutating them. Reads of the live *Database* itself still
// require exclusion from writers, exactly as before (the serving path
// only reads through snapshots).
package storage

import (
	"cyclesql/internal/sqltypes"
)

// Snapshot is an immutable point-in-time view of a Database. The zero
// value is not useful; obtain one from Database.Snapshot.
type Snapshot struct {
	db    *Database
	epoch uint64
}

// DB returns the snapshot's frozen database view. It satisfies every
// read-only *Database consumer — executors bind its relations into
// compiled plans, lazy index builds publish under the view's own lock —
// and rejects writes (Insert errors, Mutate panics). Clone still works
// and returns an ordinary mutable deep copy, which is how the test-suite
// distillation derives perturbed variants from a pinned snapshot.
func (s *Snapshot) DB() *Database { return s.db }

// Epoch returns the database epoch at which the snapshot was taken. The
// serving layer compares it against Database.Epoch() to decide whether a
// cached snapshot is still current; the warm executor and explainer
// caches compare the epochs of two views of one store (Database.Origin)
// to keep only the newer one's entry.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Table returns the pinned relation for a table name, or nil.
func (s *Snapshot) Table(name string) *sqltypes.Relation { return s.db.Table(name) }

// NumRows returns the pinned row count of a table.
func (s *Snapshot) NumRows(table string) int { return s.db.NumRows(table) }

// Epoch returns the database's current version: it advances on every
// snapshot and on every write (Insert, Mutate), so a reader holding a
// Snapshot knows its view is current exactly when the epochs match.
func (db *Database) Epoch() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.epoch
}

// Origin returns the live store a snapshot view was pinned from, or nil
// when db is not a view. Every view of one store shares its origin, and a
// newer view has a higher Epoch, so a cache keyed by the origin can hold
// the newest view's entry alone.
func (db *Database) Origin() *Database { return db.origin }

// Snapshot pins an immutable point-in-time view of the database in
// O(tables + built indexes) — no row is copied now or later on behalf of
// this snapshot; the first writer to touch a table pays a one-time
// row-header copy instead. Snapshots may be taken concurrently with
// writers (both serialize on the database lock) and any number of
// goroutines may read through the returned view. Snapshotting a frozen
// view returns the view itself — it is already immutable.
func (db *Database) Snapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.origin != nil {
		return &Snapshot{db: db, epoch: db.epoch}
	}
	db.epoch++
	view := &Database{
		Schema: db.Schema,
		origin: db,
		epoch:  db.epoch,
		tables: make(map[string]*sqltypes.Relation, len(db.tables)),
	}
	// The built index objects are immutable — a write drops the live
	// store's references instead of mutating them — so the view shares
	// them outright. Each table's set is copied: the view's own lazy builds
	// publish into its copy under the view's lock, and the live store's
	// into the original, so neither sees the other's new indexes.
	if db.indexes != nil {
		view.indexes = make(map[string]*indexSet, len(db.indexes))
		for name, set := range db.indexes {
			view.indexes[name] = set.clone()
		}
	}
	if db.shared == nil {
		db.shared = make(map[string]bool, len(db.tables))
	}
	for name, rel := range db.tables {
		view.tables[name] = rel
		db.shared[name] = true
	}
	return &Snapshot{db: view, epoch: db.epoch}
}

// writeTableLocked returns the relation for table name ready to be
// written: if the table is pinned by a snapshot, it first swaps in a
// copy — row headers only when deepRows is false (Insert appends, never
// rewrites), full row clones when true (Mutate rewrites values in place).
// The caller drops the table's indexes. Must be called with db.mu held.
func (db *Database) writeTableLocked(name string, deepRows bool) *sqltypes.Relation {
	rel := db.tables[name]
	if rel == nil || !db.shared[name] {
		return rel
	}
	cp := &sqltypes.Relation{Columns: rel.Columns}
	if deepRows {
		cp.Rows = make([]sqltypes.Row, len(rel.Rows))
		for i, row := range rel.Rows {
			cp.Rows[i] = row.Clone()
		}
	} else {
		cp.Rows = append(make([]sqltypes.Row, 0, len(rel.Rows)+1), rel.Rows...)
	}
	db.tables[name] = cp
	delete(db.shared, name)
	return cp
}
