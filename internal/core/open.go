package core

import (
	"errors"

	"repro/internal/dataset"
	"repro/internal/store"
)

// Open rebuilds a dataset from a persistent store (store.Load, which
// streams the committed chunks and tombstones into one table) and
// prepares an engine over it once, restoring the epoch counter of the
// engine that wrote the store, so future epochs continue its numbering
// across a process restart and releases are bit-identical to the
// pre-restart engine's. The opened engine's warm cache starts empty, so
// it needs no row-id history: its first warm run at a spec runs cold and
// seeds the cache.
//
// The opened engine writes through: Append and Delete persist their
// epoch durably before it becomes visible to runs, and on a persistence
// error the engine is unchanged.
func Open(b store.Backend, name string, opts ...Option) (*Engine, error) {
	tbl, epoch, err := store.Load(b, name)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(tbl, opts...)
	if err != nil {
		return nil, err
	}
	e.state.epoch, e.state.remapFrom = epoch, epoch
	e.store, e.storeName = b, name
	return e, nil
}

// Create snapshots the table into the store under name and opens an
// engine over it. The engine is built from what was just written — not
// from the caller's table — so the state it serves is exactly what a
// post-restart Open will serve, making restart hash-identity hold by
// construction. The caller's table is not retained.
func Create(b store.Backend, name string, t *dataset.Table, opts ...Option) (*Engine, error) {
	if t == nil {
		return nil, errors.New("core: nil table")
	}
	if err := store.Write(b, name, t); err != nil {
		return nil, err
	}
	return Open(b, name, opts...)
}
