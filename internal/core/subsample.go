package core

import (
	"context"
	"strings"

	"scidb/internal/array"
	"scidb/internal/obs"
	"scidb/internal/ops"
	"scidb/internal/parser"
)

// Box pushdown for SUBSAMPLE. A subsample whose conjuncts are all range
// comparisons selects one coordinate box, so a source that can scan a box
// (an in-situ attachment, a store-backed array, a distributed array) reads
// only that box instead of everything. The operator still runs over the
// partial array, and to make its output bit-identical to the
// gather-everything plan — schema included — the partial array carries the
// source's full extent: ops.Subsample sizes each output dimension from its
// input's high-water mark, which a box read alone would understate on a
// ragged array.

// boxSource is one pushdown-capable input: the schema its box is derived
// from, and a scan returning the box's cells plus the source's full extent
// (the bounds a whole-source read reports; nil when the schema's declared
// bounds already are).
type boxSource struct {
	schema *array.Schema
	scan   func(box array.Box) (*array.Array, []int64, error)
}

// evalBoxSubsample runs a box-expressible SUBSAMPLE over a direct
// reference through the source's box scan. done is false when the input is
// not such a reference or a conjunct (even, odd, !=) is not a range; the
// caller then gathers the input and subsamples it.
func (db *Database) evalBoxSubsample(ctx context.Context, n *parser.SubsampleExpr) (*array.Array, bool, error) {
	src, err := db.boxSourceFor(ctx, n.In)
	if err != nil || src == nil {
		return nil, false, err
	}
	box, ok := subsampleBox(src.schema, n.Pred)
	if !ok {
		return nil, false, nil
	}
	conds, err := dimConds(n.Pred)
	if err != nil {
		return nil, false, err
	}
	partial, ext, err := src.scan(box)
	if err != nil {
		return nil, false, err
	}
	partial.RaiseHwm(ext)
	obs.SpanFromContext(ctx).Add("box_pushdown", 1)
	res, err := ops.SubsampleCtx(ctx, partial, conds)
	if err != nil {
		return nil, false, err
	}
	return res, true, nil
}

// boxSourceFor resolves a direct reference the way resolveRef does —
// attachments and stores first, then the cluster unless a local name
// shadows it — and returns its box source, or nil when the input is not a
// pushdown-capable reference.
func (db *Database) boxSourceFor(ctx context.Context, e parser.ArrayExpr) (*boxSource, error) {
	ref, ok := e.(*parser.Ref)
	if !ok || strings.HasPrefix(ref.Name, "sys.") {
		return nil, nil
	}
	name := ref.Name
	db.mu.RLock()
	at, st, co := db.attached[name], db.stores[name], db.cluster
	inMemory := at != nil && at.cached != nil
	local := db.nameTakenLocked(name) || at != nil
	db.mu.RUnlock()
	switch {
	case inMemory:
		return nil, nil // already materialized: the normal path reads no file
	case at != nil:
		return &boxSource{schema: at.ds.Schema(), scan: func(box array.Box) (*array.Array, []int64, error) {
			return db.scanAttachedBox(name, at, box)
		}}, nil
	case st != nil:
		return &boxSource{schema: st.Schema(), scan: func(box array.Box) (*array.Array, []int64, error) {
			partial, err := st.ReadBox(box)
			if err != nil {
				return nil, nil, err
			}
			ext, err := st.Extent()
			return partial, ext, err
		}}, nil
	case !local && co != nil && co.Has(name):
		sch, err := co.ArraySchema(name)
		if err != nil {
			return nil, err
		}
		// A gather treats every dimension as unbounded, so the box does too.
		gs := sch.Clone()
		for i := range gs.Dims {
			gs.Dims[i].High = array.Unbounded
		}
		return &boxSource{schema: gs, scan: func(box array.Box) (*array.Array, []int64, error) {
			return co.ScanExtentCtx(ctx, name, box)
		}}, nil
	}
	return nil, nil
}

// scanAttachedBox reads one box of an attached dataset from its file,
// named like materializeAttached names the whole dataset.
func (db *Database) scanAttachedBox(name string, at *attachedDS, box array.Box) (*array.Array, []int64, error) {
	partial, err := array.New(at.ds.Schema().Clone())
	if err != nil {
		return nil, nil, err
	}
	partial.Schema.Name = name
	var werr error
	if err := at.ds.Scan(box, func(c array.Coord, cell array.Cell) bool {
		werr = partial.Set(c.Clone(), cell)
		return werr == nil
	}); err != nil {
		return nil, nil, err
	}
	if werr != nil {
		return nil, nil, werr
	}
	ext, err := db.attachedExtent(at)
	return partial, ext, err
}

// attachedExtent returns the bounds materializing the whole dataset would
// report. Declared bounds need no I/O (nil); an unbounded dimension costs
// one pass over the file, kept for later queries — an attached file is
// read-only to the engine, as the materialization cache already assumes.
func (db *Database) attachedExtent(at *attachedDS) ([]int64, error) {
	schema := at.ds.Schema()
	open := false
	for _, d := range schema.Dims {
		open = open || d.High == array.Unbounded
	}
	if !open {
		return nil, nil
	}
	db.mu.RLock()
	ext := at.extent
	db.mu.RUnlock()
	if ext != nil {
		return ext, nil
	}
	ext = make([]int64, len(schema.Dims))
	if err := at.ds.Scan(storeBox(schema), func(c array.Coord, _ array.Cell) bool {
		array.MaxInto(ext, c)
		return true
	}); err != nil {
		return nil, err
	}
	db.mu.Lock()
	at.extent = ext
	db.mu.Unlock()
	return ext, nil
}

// subsampleBox derives the contiguous coordinate box implied by a
// subsample conjunction, when every conjunct is a range-style comparison.
// ok is false when a conjunct (even/odd/!=) cannot be expressed as a box.
func subsampleBox(s *array.Schema, conds []parser.DimCond) (array.Box, bool) {
	box := storeBox(s)
	lo, hi := box.Lo, box.Hi
	for _, c := range conds {
		d := s.DimIndex(c.Dim)
		if d < 0 {
			return array.Box{}, false
		}
		switch c.Op {
		case "=":
			lo[d], hi[d] = max(lo[d], c.Value), min(hi[d], c.Value)
		case "<":
			hi[d] = min(hi[d], c.Value-1)
		case "<=":
			hi[d] = min(hi[d], c.Value)
		case ">":
			lo[d] = max(lo[d], c.Value+1)
		case ">=":
			lo[d] = max(lo[d], c.Value)
		default:
			return array.Box{}, false
		}
	}
	for i := range lo {
		if lo[i] > hi[i] {
			// Empty box: still pushable (scan returns nothing).
			hi[i] = lo[i] - 1
		}
	}
	return box, true
}
