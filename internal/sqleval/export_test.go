package sqleval

import "cyclesql/internal/storage"

// NewIndexFree returns an executor that reads no index or statistic: hash
// joins and filter pushdown over plain scans.
func NewIndexFree(db *storage.Database) *Executor { return &Executor{db: db, mode: indexFree} }

// NewNestedLoop returns the per-row reference executor: nested-loop joins,
// no pushdown, and every subquery re-run once per outer row.
func NewNestedLoop(db *storage.Database) *Executor { return &Executor{db: db, mode: nestedLoop} }

// BenchDB is benchDB for the external tests.
var BenchDB = benchDB

// LimitParity is limitParity for the external tests.
var LimitParity = limitParity
