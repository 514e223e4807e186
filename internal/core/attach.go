package core

import (
	"fmt"
	"os"

	"scidb/internal/array"
	"scidb/internal/insitu"
	"scidb/internal/parser"
	"scidb/internal/partition"
)

// attachedDS is an external file registered for in-situ querying (§2.9):
// the engine reads it through the adaptor on demand, never loading it
// wholesale unless a query actually touches everything.
type attachedDS struct {
	path    string
	adaptor string
	ds      insitu.Dataset
	// cached holds the fully materialized array once some query has needed
	// all of it; box-limited queries bypass it.
	cached *array.Array
	// extent is the dataset's full extent once a box pushdown has needed
	// it (see attachedExtent). Both caches are guarded by db.mu.
	extent []int64
}

// runAttach registers the external file. Only the header is read.
func (db *Database) runAttach(s *parser.Attach) (*Result, error) {
	ad, err := insitu.ByName(s.Adaptor)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(s.Path); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ds, err := ad.Open(s.Path)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.nameTakenLocked(s.Array) || db.attached[s.Array] != nil {
		ds.Close()
		return nil, fmt.Errorf("core: array %q already exists", s.Array)
	}
	db.attached[s.Array] = &attachedDS{path: s.Path, adaptor: s.Adaptor, ds: ds}
	return &Result{Msg: fmt.Sprintf("attached %s in situ from '%s' (%s); no load performed",
		s.Array, s.Path, s.Adaptor)}, nil
}

// runCreateFromFile registers an external file as a first-class array
// (CREATE ARRAY name FROM FILE 'path' USING adaptor). With a cluster
// attached and a bounded dimension to split on, the file is registered
// in situ across all nodes — each worker materializes its block slab
// lazily through the adaptor, so queries run distributed with no load
// step (the file must be reachable from every worker). Otherwise the
// file attaches locally, exactly like ATTACH.
func (db *Database) runCreateFromFile(s *parser.CreateFromFile) (*Result, error) {
	ad, err := insitu.ByName(s.Adaptor)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(s.Path); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ds, err := ad.Open(s.Path)
	if err != nil {
		return nil, err
	}
	schema := ds.Schema().Clone()
	schema.Name = s.Name
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.nameTakenLocked(s.Name) || db.attached[s.Name] != nil ||
		(db.cluster != nil && db.cluster.Has(s.Name)) {
		ds.Close()
		return nil, fmt.Errorf("core: array %q already exists", s.Name)
	}
	if db.cluster != nil {
		split := -1
		for i, d := range schema.Dims {
			if d.High != array.Unbounded {
				split = i
				break
			}
		}
		if split >= 0 {
			ds.Close() // every worker opens its own handle
			scheme := partition.Block{
				Nodes:    db.cluster.NumNodes(),
				SplitDim: split,
				High:     schema.Dims[split].High,
			}
			if err := db.cluster.RegisterInsitu(s.Name, s.Path, s.Adaptor, schema, scheme); err != nil {
				return nil, err
			}
			return &Result{Msg: fmt.Sprintf("registered %s in situ from '%s' (%s) across %d nodes (block-partitioned on %s); no load performed",
				s.Name, s.Path, s.Adaptor, db.cluster.NumNodes(), schema.Dims[split].Name)}, nil
		}
	}
	db.attached[s.Name] = &attachedDS{path: s.Path, adaptor: s.Adaptor, ds: ds}
	return &Result{Msg: fmt.Sprintf("attached %s in situ from '%s' (%s); no load performed",
		s.Name, s.Path, s.Adaptor)}, nil
}

// materializeAttached loads the whole dataset once and caches it (a query
// needed more than a box).
func (db *Database) materializeAttached(name string, at *attachedDS) (*array.Array, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if at.cached != nil {
		return at.cached, nil
	}
	a, err := insitu.Materialize(at.ds)
	if err != nil {
		return nil, err
	}
	a.Schema.Name = name
	at.cached = a
	return a, nil
}
