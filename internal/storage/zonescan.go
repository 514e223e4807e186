package storage

import (
	"scidb/internal/array"
	"scidb/internal/rtree"
)

// This file implements zone-map pruned scans: scan variants that consult
// the per-bucket zone maps captured at encode time and skip buckets whose
// value ranges prove that no cell can satisfy the caller's predicates.
// Skipped buckets are never read from disk or decoded — the I/O-level
// half of compressed execution (§2.8's "amenable to dramatic compression"
// turned into avoided reads).

// prunable reports whether bucket m can be skipped for preds: its zone
// maps must prove no cell matches, and skipping must not unshadow older
// data. In Scan semantics a newer bucket's cells shadow older buckets'
// cells at the same coordinate; dropping m would let an older overlapping
// bucket's (possibly matching) cells through where the full scan would
// have delivered m's non-matching ones. m is therefore only prunable when
// no older candidate bucket overlaps m's box inside the query.
func prunable(m *bucketMeta, q array.Box, preds []array.ZonePred, metas []*bucketMeta) bool {
	if len(preds) == 0 || m.zones == nil {
		return false
	}
	if array.CanMatchAll(m.zones, preds) {
		return false
	}
	minter, ok := m.box.Intersect(q)
	if !ok {
		return true // nothing inside the query anyway
	}
	for _, o := range metas {
		if o.id >= m.id {
			continue
		}
		if _, overlap := o.box.Intersect(minter); overlap {
			return false
		}
	}
	return true
}

// ScanPruned is Scan with zone-map bucket pruning: buckets whose zone
// maps prove that no cell can satisfy every predicate in preds are
// skipped without being read, when that is shadow-safe (see prunable).
// Cells from surviving buckets are NOT filtered — fn sees them all, so
// the caller must still apply its predicate; pruning only removes cells
// that are guaranteed not to match. Memory-buffer cells carry no zone
// maps and are always delivered. Returns the number of buckets skipped.
func (s *Store) ScanPruned(q array.Box, preds []array.ZonePred, fn func(array.Coord, array.Cell) bool) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	stop := false
	s.mem.Iter(func(c array.Coord, cell array.Cell) bool {
		if !q.Contains(c) {
			return true
		}
		seen[c.Key()] = true
		if !fn(c, cell) {
			stop = true
			return false
		}
		return true
	})
	if stop {
		return 0, nil
	}
	metas := s.searchMetasLocked(q)
	var live []*bucketMeta
	var skipped int64
	for _, m := range metas {
		if prunable(m, q, preds, metas) {
			skipped++
			continue
		}
		live = append(live, m)
	}
	s.stats.chunksSkipped.Add(skipped)
	s.stats.chunksVisited.Add(int64(len(live)))
	pf := s.newPrefetcher(live)
	defer pf.stop()
	for i, m := range live {
		pf.advance(i)
		pf.consume(m.id)
		ch, release, err := s.readBucketLocked(m)
		if err != nil {
			return skipped, err
		}
		inter, ok := ch.Box().Intersect(q)
		if !ok {
			release()
			continue
		}
		done := false
		array.IterBox(inter, func(c array.Coord) bool {
			cell, ok := ch.Get(c)
			if !ok {
				return true
			}
			key := c.Key()
			if seen[key] {
				return true
			}
			seen[key] = true
			if !fn(c, cell) {
				done = true
				return false
			}
			return true
		})
		release()
		if done {
			return skipped, nil
		}
	}
	return skipped, nil
}

// ScanEncodedChunks hands whole decoded buckets to fn newest-first,
// pruning with the same zone-map test as ScanPruned. Chunk-at-a-time
// delivery can only reproduce cell-level scan semantics when no
// shadowing is in play, so it refuses (ok=false, fn never called) when
// the memory buffer holds cells inside q or any two candidate buckets
// overlap. Delivered chunks are shared buffer-pool entries: read-only,
// valid only during the fn call (Clone to retain), and they may extend
// beyond q — the caller trims. Returns buckets visited and skipped.
func (s *Store) ScanEncodedChunks(q array.Box, preds []array.ZonePred, fn func(*array.Chunk) error) (visited, skipped int64, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	memHit := false
	s.mem.Iter(func(c array.Coord, _ array.Cell) bool {
		if q.Contains(c) {
			memHit = true
			return false
		}
		return true
	})
	if memHit {
		return 0, 0, false, nil
	}
	metas := s.searchMetasLocked(q)
	for i := 0; i < len(metas); i++ {
		for j := i + 1; j < len(metas); j++ {
			if _, overlap := metas[i].box.Intersect(metas[j].box); overlap {
				return 0, 0, false, nil
			}
		}
	}
	var live []*bucketMeta
	for _, m := range metas {
		// Non-overlap is already established, so the shadow check inside
		// prunable is vacuous; only the zone test can fire.
		if prunable(m, q, preds, metas) {
			skipped++
			continue
		}
		live = append(live, m)
	}
	s.stats.chunksSkipped.Add(skipped)
	s.stats.chunksVisited.Add(int64(len(live)))
	pf := s.newPrefetcher(live)
	defer pf.stop()
	for i, m := range live {
		pf.advance(i)
		pf.consume(m.id)
		ch, release, rerr := s.readBucketLocked(m)
		if rerr != nil {
			return visited, skipped, true, rerr
		}
		visited++
		ferr := fn(ch)
		release()
		if ferr != nil {
			return visited, skipped, true, ferr
		}
	}
	return visited, skipped, true, nil
}

// ReadBox returns the cells inside q as a fresh array of the store's
// schema. It delivers chunk at a time where it can: buckets wholly inside
// q are cloned out of the pool and adopted whole (keeping their zone maps
// and encoded views for the operators), and only buckets q cuts are copied
// cell by cell. When shadowing rules chunk delivery out (buffered cells or
// overlapping buckets in q) it rebuilds the array through Scan instead.
func (s *Store) ReadBox(q array.Box) (*array.Array, error) {
	out, err := array.New(s.schema.Clone())
	if err != nil {
		return nil, err
	}
	_, _, ok, err := s.ScanEncodedChunks(q, nil, func(ch *array.Chunk) error {
		cb := ch.Box()
		if q.Contains(cb.Lo) && q.Contains(cb.Hi) {
			return out.MergeChunk(ch.Clone())
		}
		inter, hit := cb.Intersect(q)
		if !hit {
			return nil
		}
		var werr error
		array.IterBox(inter, func(c array.Coord) bool {
			if cell, present := ch.Get(c); present {
				werr = out.Set(c.Clone(), cell)
			}
			return werr == nil
		})
		return werr
	})
	if err != nil {
		return nil, err
	}
	if ok {
		return out, nil
	}
	var werr error
	if err := s.Scan(q, func(c array.Coord, cell array.Cell) bool {
		werr = out.Set(c.Clone(), cell)
		return werr == nil
	}); err != nil {
		return nil, err
	}
	return out, werr
}

// searchMetasLocked collects the buckets intersecting q, newest first.
func (s *Store) searchMetasLocked(q array.Box) []*bucketMeta {
	var metas []*bucketMeta
	s.rt.Search(q, func(e rtree.Entry) bool {
		metas = append(metas, s.buckets[e.ID])
		return true
	})
	for i := 0; i < len(metas); i++ {
		for j := i + 1; j < len(metas); j++ {
			if metas[j].id > metas[i].id {
				metas[i], metas[j] = metas[j], metas[i]
			}
		}
	}
	return metas
}

// ZoneSummary returns the merged zone maps across every bucket
// intersecting q (element-wise union), or nil when no bucket carries
// zones. Planners use it to estimate selectivity without any I/O.
func (s *Store) ZoneSummary(q array.Box) []*array.ZoneMap {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*array.ZoneMap
	for _, m := range s.searchMetasLocked(q) {
		if m.zones == nil {
			continue
		}
		if out == nil {
			out = make([]*array.ZoneMap, len(m.zones))
			for i, z := range m.zones {
				out[i] = z.Clone()
			}
			continue
		}
		for i := range out {
			if i < len(m.zones) {
				out[i] = out[i].Union(m.zones[i])
			}
		}
	}
	return out
}

// EstimateSkip reports how many buckets intersecting q a pruned scan
// with preds would skip versus visit, using only in-memory metadata.
// The cost model uses it to decide whether the pruned path is worth
// taking before issuing any reads.
func (s *Store) EstimateSkip(q array.Box, preds []array.ZonePred) (skip, visit int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	metas := s.searchMetasLocked(q)
	for _, m := range metas {
		if prunable(m, q, preds, metas) {
			skip++
		} else {
			visit++
		}
	}
	return skip, visit
}
