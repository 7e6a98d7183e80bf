package sqlnorm

import (
	"sync"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqlparse"
)

// CacheKey renders the original statement through sqlast's canonical
// form into a pooled buffer, so nothing is cloned, and interns the
// finished key in a bounded table, so the warm path returns a shared
// string without allocating. The differential suites in
// internal/frontdiff hold the key byte-identical to the seed oracle
// preserved there, which clones, rewrites and re-renders instead.

// keyBufs recycles the buffer a key is built in.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// CacheKey returns a value-preserving canonical rendering of stmt, meant
// for keying compiled-plan caches: identifier case folds, the
// deterministic re-rendering normalizes whitespace, and commutative
// WHERE conjuncts sort — but, unlike Canonical, literal values,
// projection order, aliases, and LIMIT/OFFSET are all kept, because
// plans compiled from statements that differ in any of those are not
// interchangeable. A compiled plan also embeds its output column labels
// with the original identifier case, so the key carries the unfolded
// projection labels: two statements share a CacheKey only when a shared
// plan is observably identical, labels included. Textually identical
// statements (the common case: the same candidate SQL resurfacing in a
// different beam) always share a CacheKey.
func CacheKey(stmt *sqlast.SelectStmt) string {
	bp := keyBufs.Get().(*[]byte)
	buf := sqlast.AppendCanonicalSQL((*bp)[:0], stmt)
	for _, core := range stmt.Cores {
		for _, it := range core.Items {
			buf = append(buf, '\x00')
			switch {
			case it.Alias != "":
				buf = append(buf, it.Alias...)
			case it.Star:
				// Star expansion labels come from the (already lowered)
				// stored column names, so stars are case-independent.
			default:
				buf = sqlast.AppendExpr(buf, it.Expr)
			}
		}
	}
	key := internKey(buf)
	*bp = buf
	keyBufs.Put(bp)
	return key
}

// CacheKeyOf computes the CacheKey of raw SQL text in a single pass
// over the bytes: a pooled arena parse feeds the canonical renderer
// directly, and the transient AST never leaves this function — the
// archetypal bounded-lifetime use of sqlparse's arena-reuse mode.
func CacheKeyOf(sql string) (string, error) {
	p := sqlparse.AcquireParser()
	stmt, err := p.Parse(sql)
	if err != nil {
		sqlparse.ReleaseParser(p)
		return "", err
	}
	key := CacheKey(stmt)
	sqlparse.ReleaseParser(p)
	return key, nil
}

// Bounded intern table: CacheKey's callers immediately use the key in a
// map, so returning the one shared string per distinct key makes the
// warm path allocation-free (the map lookup below compiles without a
// []byte→string copy). The bound keeps an adversarial query stream from
// growing the table without limit; beyond it, keys are returned
// un-interned.
const maxInternedKeys = 4096

var (
	internMu sync.RWMutex
	interned = make(map[string]string, 256)
)

func internKey(b []byte) string {
	internMu.RLock()
	s, ok := interned[string(b)]
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(interned) < maxInternedKeys {
		interned[s] = s
	}
	internMu.Unlock()
	return s
}
