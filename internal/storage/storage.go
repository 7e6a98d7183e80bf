// Package storage provides the in-memory table store the SQL executor
// reads from. A Database binds a schema.Schema to one relation per table
// and enforces arity and (loose, SQLite-like) type affinity on insert.
//
// Databases are cheap to clone, which the test-suite accuracy metric uses
// to build distilled database variants (paper §V-A1, "test suite accuracy").
//
// Concurrency: a Database is safe for concurrent readers — queries may
// scan tables and build or probe the lazy secondary indexes from any
// number of goroutines (index.go guards the lazy builds). Writers
// (Insert, MustInsert, Mutate) still require exclusion from readers of
// the live database and from each other: they mutate relation contents
// in place, and a query racing a row append would read a torn table.
// ColStats is the one reader that may overlap them: on a live database
// it reads under the write lock (stats.go).
// Both parallelism levels above this package — concurrent candidate
// verification inside one core.Pipeline.Translate and the cross-example
// batch sweep in internal/experiments — lean on the reader half of this
// contract: they only ever read benchmark databases built before the
// sweep starts. Readers that must overlap writers — the HTTP serving
// layer — pin a copy-on-write Snapshot instead (snapshot.go): an O(tables)
// immutable view that writers never touch, because the first write to a
// pinned table swaps in a copy rather than mutating the shared relation.
// Clones are fully isolated (rows, and each clone builds its own
// indexes), so the test-suite metric's perturbed copies can be read or
// even mutated without affecting the original.
package storage

import (
	"fmt"
	"strings"
	"sync"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqltypes"
)

// Database is an in-memory database instance: a schema plus table contents,
// plus lazily built secondary indexes over table columns — hash indexes
// over column tuples for point probes and equi-join build sides
// (index.go), and sorted indexes for range probes and ordered streaming
// (sorted.go).
type Database struct {
	Schema *schema.Schema
	tables map[string]*sqltypes.Relation
	// mu guards the index sets: concurrent queries trigger lazy index
	// builds, and publishing a built index must be ordered before other
	// goroutines probe it. A built index is never mutated (a write drops
	// it), so probes run outside the lock.
	mu sync.RWMutex
	// indexes holds the built indexes per lower-cased table name. nil
	// until the first probe; Insert drops its table's entry, Mutate the
	// whole map.
	indexes map[string]*indexSet
	// epoch advances on every Snapshot and every write; snapshot holders
	// compare it against their pinned epoch to detect staleness. Guarded
	// by mu.
	epoch uint64
	// shared marks tables pinned by at least one snapshot since their
	// last copy: the next write to a shared table copies it first
	// (snapshot.go). Guarded by mu.
	shared map[string]bool
	// origin is the live store a snapshot view was pinned from, nil for a
	// database that is not a view. A view is immutable by contract, so
	// writers reject a database with an origin. Set once before the view
	// is published, read without the lock.
	origin *Database
}

// lowerName folds a table name to the map key every index store uses.
func lowerName(table string) string { return strings.ToLower(table) }

// NewDatabase returns an empty database for the schema. Every table starts
// with zero rows and the column list from the schema.
func NewDatabase(s *schema.Schema) *Database {
	db := &Database{Schema: s, tables: make(map[string]*sqltypes.Relation, len(s.Tables))}
	for _, t := range s.Tables {
		db.tables[strings.ToLower(t.Name)] = sqltypes.NewRelation(t.ColumnNames()...)
	}
	return db
}

// Table returns the stored relation for a table name, or nil if the table
// does not exist. The first write to a table pinned by a snapshot swaps a
// copy in under its name, so a caller that runs again after a write reads
// the table again; the SQL executor reads it on every run. Callers must
// not mutate it.
func (db *Database) Table(name string) *sqltypes.Relation {
	return db.tables[strings.ToLower(name)]
}

// Insert appends a row to a table after checking arity and coercing values
// toward the declared column affinity (integers widen to REAL columns,
// numerics stringify into TEXT columns). If the table is pinned by a
// snapshot, the append goes to a copy-on-write replacement and the pinned
// view is untouched; otherwise the row appends in place. Either way the
// table's built indexes are dropped, and the next probe rebuilds them.
// Inserting into a snapshot view is an error.
func (db *Database) Insert(table string, row sqltypes.Row) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("storage: unknown table %q", table)
	}
	if db.origin != nil {
		return fmt.Errorf("storage: cannot insert into a snapshot view of table %q", table)
	}
	if len(row) != len(t.Columns) {
		return fmt.Errorf("storage: table %s expects %d values, got %d", t.Name, len(t.Columns), len(row))
	}
	coerced := make(sqltypes.Row, len(row))
	for i, v := range row {
		coerced[i] = coerce(v, t.Columns[i].Type)
	}
	name := lowerName(t.Name)
	// The whole mutation runs under the lock so a Snapshot taken at any
	// instant sees either the row fully applied or not at all — and so
	// concurrent writers serialize instead of tearing each other's
	// copy-on-write swaps.
	db.mu.Lock()
	defer db.mu.Unlock()
	rel := db.writeTableLocked(name, false)
	if rel == nil {
		return fmt.Errorf("storage: unknown table %q", table)
	}
	rel.Append(coerced)
	db.epoch++
	delete(db.indexes, name)
	return nil
}

// MustInsert is Insert for statically known-good data; it panics on error.
// The synthetic dataset builders use it so malformed generators fail fast.
func (db *Database) MustInsert(table string, values ...sqltypes.Value) {
	if err := db.Insert(table, sqltypes.Row(values)); err != nil {
		panic(err)
	}
}

func coerce(v sqltypes.Value, want sqltypes.Kind) sqltypes.Value {
	if v.IsNull() {
		return v
	}
	switch want {
	case sqltypes.KindInt:
		if v.Kind() == sqltypes.KindFloat {
			return sqltypes.NewInt(int64(v.Float()))
		}
	case sqltypes.KindFloat:
		if v.Kind() == sqltypes.KindInt {
			return sqltypes.NewFloat(float64(v.Int()))
		}
	case sqltypes.KindText:
		if v.IsNumeric() {
			return sqltypes.NewText(v.String())
		}
	}
	return v
}

// NumRows returns the row count of a table (0 for unknown tables).
func (db *Database) NumRows(table string) int {
	if rel := db.Table(table); rel != nil {
		return rel.NumRows()
	}
	return 0
}

// TotalRows returns the row count across all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, rel := range db.tables {
		n += rel.NumRows()
	}
	return n
}

// Clone deep-copies the database contents (the schema is shared; schemata
// are immutable after construction). The clone starts with no indexes:
// clones exist to be perturbed, so sharing buckets with the original would
// serve stale probes after the first Mutate. Cloning a snapshot view
// yields an ordinary mutable database — the test-suite distillation
// derives its perturbed variants from pinned snapshots this way. Pinning
// without the row copy is Snapshot (snapshot.go).
func (db *Database) Clone() *Database {
	out := &Database{Schema: db.Schema, tables: make(map[string]*sqltypes.Relation, len(db.tables))}
	for k, rel := range db.tables {
		out.tables[k] = rel.Clone()
	}
	return out
}

// Mutate applies fn to every stored row of every table, visiting tables
// in schema order and rows in scan order, so a callback that draws from
// a seeded random source perturbs the same cells on every run. The
// test-suite distillation uses it to perturb copies of the database. It
// drops every built index first — fn rewrites values in place, so any
// probe served from a pre-mutation bucket would read stale rows. Tables
// pinned by a snapshot are deep-copied before fn touches them (fn
// rewrites row contents, so even row-header sharing would tear the pinned
// view). Mutating a snapshot view panics: views are immutable by
// contract.
func (db *Database) Mutate(fn func(table string, row sqltypes.Row)) {
	if db.origin != nil {
		panic("storage: cannot mutate a snapshot view")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.indexes = nil
	db.epoch++
	for _, t := range db.Schema.Tables {
		name := lowerName(t.Name)
		rel := db.writeTableLocked(name, true)
		for _, row := range rel.Rows {
			fn(name, row)
		}
	}
}
