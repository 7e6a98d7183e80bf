// Package relfix exercises released: no read of an owned result, or of
// rows taken from it, after its Release.
package relfix

import (
	"cyclesql/internal/provenance"
	"cyclesql/internal/sqleval"
)

func readAfterRelease(ex *sqleval.Executor) int {
	res, err := ex.Run("q")
	if err != nil {
		return 0
	}
	rel := res.Rel
	rows := rel.Rows
	first := rows[0]
	res.Release()
	n := len(res.Rel.Rows) // want `res read after res.Release\(\)`
	n += len(rel.Rows)     // want `rel read after res.Release\(\)`
	n += len(rows)         // want `rows read after res.Release\(\)`
	return n + first[0]    // want `first read after res.Release\(\)`
}

func provenanceAfterRelease() int {
	p := provenance.Track("q")
	table := p.Parts[0].Table
	p.Release()
	return len(table.Rows) + len(p.Parts) // want `table read after p.Release\(\)` `p read after p.Release\(\)`
}

// copied keeps only a count, taken before the release.
func copied(ex *sqleval.Executor) int {
	res, _ := ex.Run("q")
	n := len(res.Rel.Rows)
	res.Release()
	return n
}

// deferred releases at exit, after every read.
func deferred(ex *sqleval.Executor) int {
	res, _ := ex.Run("q")
	defer res.Release()
	return len(res.Rel.Rows)
}

// earlyExit releases on a path that leaves the loop body, so the read
// after the branch never sees a released result.
func earlyExit(ex *sqleval.Executor, qs []string) int {
	n := 0
	for _, q := range qs {
		res, err := ex.Run(q)
		if err != nil {
			continue
		}
		if len(res.Rel.Rows) == 0 {
			res.Release()
			continue
		}
		n += len(res.Rel.Rows)
		res.Release()
	}
	return n
}

// reassigned reads a fresh result through the same variable.
func reassigned(ex *sqleval.Executor) int {
	res, _ := ex.Run("a")
	res.Release()
	res, _ = ex.Run("b")
	defer res.Release()
	return len(res.Rel.Rows)
}

// mayRelease releases on one branch only; the read after it may see
// released storage.
func mayRelease(ex *sqleval.Executor, drop bool) int {
	res, _ := ex.Run("q")
	if drop {
		res.Release()
	}
	return len(res.Rel.Rows) // want `res read after res.Release\(\)`
}
