package sqlnorm

import (
	"sync"

	"cyclesql/internal/sqlast"
)

// AppendCacheKey renders the original statement through sqlast's
// canonical form straight into dst, so nothing is cloned and, into a
// reused buffer, nothing is allocated. A plan cache looks the bytes up
// as m[string(key)], which Go compiles without a copy, and builds the
// key string only when it stores a new entry. The differential suites
// in internal/frontdiff hold the key byte-identical to the seed oracle
// preserved there, which clones, rewrites and re-renders instead.
//
// The key is a value-preserving canonical rendering of stmt, meant for
// keying compiled-plan caches: identifier case folds, the deterministic
// re-rendering normalizes whitespace, and commutative WHERE conjuncts
// sort — but, unlike Canonical, literal values, projection order,
// aliases, and LIMIT/OFFSET are all kept, because plans compiled from
// statements that differ in any of those are not interchangeable. A
// compiled plan also embeds its output column labels with the original
// identifier case, so the key carries the unfolded projection labels:
// two statements share a key only when a shared plan is observably
// identical, labels included. Textually identical statements (the
// common case: the same candidate SQL resurfacing in a different beam)
// always share a key.
func AppendCacheKey(dst []byte, stmt *sqlast.SelectStmt) []byte {
	dst = sqlast.AppendCanonicalSQL(dst, stmt)
	for _, core := range stmt.Cores {
		for _, it := range core.Items {
			dst = append(dst, '\x00')
			switch {
			case it.Alias != "":
				dst = append(dst, it.Alias...)
			case it.Star:
				// Star expansion labels come from the (already lowered)
				// stored column names, so stars are case-independent.
			default:
				dst = sqlast.AppendExpr(dst, it.Expr)
			}
		}
	}
	return dst
}

// keyBufs recycles the buffer CacheKey renders into.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// CacheKey returns AppendCacheKey's key as a string; the string is its
// only allocation.
func CacheKey(stmt *sqlast.SelectStmt) string {
	bp := keyBufs.Get().(*[]byte)
	*bp = AppendCacheKey((*bp)[:0], stmt)
	key := string(*bp)
	keyBufs.Put(bp)
	return key
}
