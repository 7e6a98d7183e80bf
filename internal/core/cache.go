package core

import (
	"sync"

	"cyclesql/internal/storage"
)

// maxCachedPerDB bounds each keyspace of the pipeline's per-database
// executor and explainer caches.
const maxCachedPerDB = 8

// boundedCache is the small per-database cache the pipeline and the
// data-grounded feedback share for executors and explainers. Its zero
// value is ready to use. It has two keyspaces, bounded separately, so a
// live store and its snapshot views never evict each other.
//
// A database that is not a snapshot view (the batch drivers' stores,
// test-suite clones, a live store passed directly) is keyed by pointer.
// At maxCachedPerDB entries the cache evicts one arbitrary entry instead
// of clearing, so a workload that interleaves more databases than the
// limit (the experiment drivers sweep dev examples across many databases)
// degrades gracefully rather than losing every warm entry at once.
//
// A snapshot view is keyed by its live store (storage.Database.Origin),
// and each live store holds one entry: the newest view's. A newer view
// (higher Epoch) replaces the entry, so the older view's value, and with
// it the view's rows, indexes and compiled plans, becomes garbage once
// the requests still reading that view finish. A call for a view older
// than the cached one gets a fresh value that is never cached, so a
// straggler cannot evict the newer entry. Live stores evict as above.
//
// The cache is safe for concurrent use: callers sharing one Pipeline
// across goroutines — or one feedback across parallel candidates — hit
// these maps simultaneously, so every access runs under the mutex.
type boundedCache[V any] struct {
	mu    sync.Mutex
	m     map[*storage.Database]V
	views map[*storage.Database]viewEntry[V]
}

// viewEntry is the cached value of a live store's newest view.
type viewEntry[V any] struct {
	view  *storage.Database
	epoch uint64
	v     V
}

// get returns the value for db, building it with build on a miss. The
// whole round-trip is atomic, so concurrent callers racing on a cold key
// share one value — which is what lets parallel candidate verification
// share a single executor (and explainer) per database instead of
// compiling plans once per goroutine.
func (c *boundedCache[V]) get(db *storage.Database, build func(*storage.Database) V) V {
	origin := db.Origin()
	c.mu.Lock()
	defer c.mu.Unlock()
	if origin == nil {
		v, ok := c.m[db]
		if !ok {
			v = build(db)
			c.m = put(c.m, db, v)
		}
		return v
	}
	e, ok := c.views[origin]
	if ok && e.view == db {
		return e.v
	}
	epoch := db.Epoch()
	if ok && epoch < e.epoch {
		return build(db)
	}
	v := build(db)
	c.views = put(c.views, origin, viewEntry[V]{view: db, epoch: epoch, v: v})
	return v
}

// put stores v under k, making m on first use and evicting one arbitrary
// entry when a new key would pass maxCachedPerDB.
func put[V any](m map[*storage.Database]V, k *storage.Database, v V) map[*storage.Database]V {
	if m == nil {
		m = make(map[*storage.Database]V, maxCachedPerDB)
	} else if _, ok := m[k]; !ok && len(m) >= maxCachedPerDB {
		for evict := range m {
			delete(m, evict)
			break
		}
	}
	m[k] = v
	return m
}
