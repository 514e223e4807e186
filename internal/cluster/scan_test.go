package cluster

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"scidb/internal/array"
	"scidb/internal/storage"
)

// scanWorker builds a store-backed worker holding a ragged 2-D array: x in
// 1..16 (stride 4), y unbounded (stride 4) and filled to 13 - x, so buckets
// range from full to partly empty to absent.
func scanWorker(t *testing.T) (*Worker, *array.Schema) {
	t.Helper()
	w := NewWorkerWithOptions(0, WorkerOptions{Persist: true, Stride: []int64{4, 4}})
	t.Cleanup(func() { w.Close() })
	schema := &array.Schema{
		Name: "A",
		Dims: []array.Dimension{
			{Name: "x", High: 16, ChunkLen: 4},
			{Name: "y", High: array.Unbounded, ChunkLen: 4},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
	if resp := w.Handle(&Message{Op: "create", Array: "A", Schema: schema}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	in := array.MustNew(partitionSchema(schema))
	for x := int64(1); x <= 16; x++ {
		for y := int64(1); y <= 13-x; y++ {
			if err := in.Set(array.Coord{x, y}, array.Cell{array.Float64(float64(x*100+y) / 3)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	putCells(t, w, in)
	if resp := w.Handle(&Message{Op: "flush", Array: "A"}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	return w, schema
}

func putCells(t *testing.T, w *Worker, a *array.Array) {
	t.Helper()
	payload, err := storage.EncodeArray(a)
	if err != nil {
		t.Fatal(err)
	}
	if resp := w.Handle(&Message{Op: "put", Array: "A", Payload: payload}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
}

// scanDecoded runs one scan request and decodes its payload.
func scanDecoded(t *testing.T, w *Worker, schema *array.Schema, req *Message) (*array.Array, *Message) {
	t.Helper()
	resp := w.Handle(req)
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	a, err := storage.DecodeArray(partitionSchema(schema), resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return a, resp
}

// TestWorkerScanChunkPathMatchesCellPath: a plain box scan of a
// store-backed partition adopts whole pool chunks; the same scan with an
// exclude box that excludes nothing takes the cell-by-cell path. Both must
// decode to the same array, bit for bit, for boxes that cover buckets
// whole, cut them, miss them, and are empty — with and without buffered
// (unflushed) cells, which make the store refuse chunk delivery.
func TestWorkerScanChunkPathMatchesCellPath(t *testing.T) {
	w, schema := scanWorker(t)
	boxes := []array.Box{
		fullBox(2),
		{Lo: array.Coord{1, 1}, Hi: array.Coord{8, 8}},        // whole buckets
		{Lo: array.Coord{3, 2}, Hi: array.Coord{10, 7}},       // cuts buckets
		{Lo: array.Coord{1, 20}, Hi: array.Coord{16, 40}},     // past the data
		{Lo: array.Coord{5, 1}, Hi: array.Coord{4, 8}},        // empty
		{Lo: array.Coord{9, 1}, Hi: array.Coord{12, 1 << 40}}, // ragged tail
	}
	nowhere := [][]int64{{1000, 1000}}
	for _, buffered := range []bool{false, true} {
		if buffered {
			extra := array.MustNew(partitionSchema(schema))
			if err := extra.Set(array.Coord{2, 15}, array.Cell{array.Float64(-2)}); err != nil {
				t.Fatal(err)
			}
			putCells(t, w, extra)
		}
		for _, box := range boxes {
			base := &Message{Op: "scan", Array: "A", BoxLo: box.Lo, BoxHi: box.Hi}
			visited := w.stores["A"].Stats().ChunksVisited
			chunked, cr := scanDecoded(t, w, schema, base)
			if tookChunks := w.stores["A"].Stats().ChunksVisited > visited; !buffered && box.Lo[0] == 1 && box.Lo[1] == 1 && !tookChunks {
				t.Fatalf("box %v: the plain scan did not deliver pool chunks", box)
			}
			cellReq := *base
			cellReq.ExclLo, cellReq.ExclHi = nowhere, nowhere
			cells, lr := scanDecoded(t, w, schema, &cellReq)
			if cr.Cells != lr.Cells || chunked.Count() != cells.Count() || chunked.Count() != cr.Cells {
				t.Fatalf("box %v buffered=%v: counts %d/%d (reported %d/%d)", box, buffered,
					chunked.Count(), cells.Count(), cr.Cells, lr.Cells)
			}
			if !reflect.DeepEqual(chunked.Bounds(), cells.Bounds()) {
				t.Fatalf("box %v: bounds %v vs %v", box, chunked.Bounds(), cells.Bounds())
			}
			cells.Iter(func(c array.Coord, want array.Cell) bool {
				got, ok := chunked.At(c)
				if !ok || math.Float64bits(got[0].Float) != math.Float64bits(want[0].Float) {
					t.Fatalf("box %v: cell %v = %v, want %v", box, c, got, want)
				}
				return true
			})
		}
	}
}

// TestWorkerScanReportsExtent: an extent request returns the whole
// partition's extent, whatever box the scan reads.
func TestWorkerScanReportsExtent(t *testing.T) {
	w, _ := scanWorker(t)
	box := array.Box{Lo: array.Coord{9, 1}, Hi: array.Coord{9, 2}}
	resp := w.Handle(&Message{Op: "scan", Array: "A", BoxLo: box.Lo, BoxHi: box.Hi, WantExtent: true})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if want := []int64{12, 12}; !reflect.DeepEqual(resp.Extent, want) {
		t.Fatalf("extent = %v, want %v (x = 12 is the last row with cells; row x = 1 reaches y = 12)", resp.Extent, want)
	}
	if resp := w.Handle(&Message{Op: "scan", Array: "A"}); resp.Extent != nil {
		t.Fatalf("unrequested extent %v", resp.Extent)
	}
}

// TestWorkerConcurrentScans: scans encode their replies outside the worker
// lock; concurrent scans and writes on one worker must stay race-free and
// every scan must see a consistent snapshot (run with -race).
func TestWorkerConcurrentScans(t *testing.T) {
	w, schema := scanWorker(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp := w.Handle(&Message{Op: "scan", Array: "A"})
				if resp.Err != "" {
					t.Error(resp.Err)
					return
				}
				a, err := storage.DecodeArray(partitionSchema(schema), resp.Payload)
				if err != nil {
					t.Error(err)
					return
				}
				if a.Count() != resp.Cells {
					t.Errorf("payload holds %d cells, reply says %d", a.Count(), resp.Cells)
					return
				}
			}
		}()
	}
	for i := int64(0); i < 10; i++ {
		extra := array.MustNew(partitionSchema(schema))
		if err := extra.Set(array.Coord{16, 20 + i}, array.Cell{array.Float64(float64(i))}); err != nil {
			t.Fatal(err)
		}
		putCells(t, w, extra)
	}
	wg.Wait()
	if s := w.Stats(); s.CellsScanned == 0 || s.BytesOut == 0 {
		t.Fatalf("scan stats not recorded: %+v", s)
	}
}
