package core

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/cluster"
	"scidb/internal/insitu"
	"scidb/internal/ops"
	"scidb/internal/parser"
	"scidb/internal/partition"
	"scidb/internal/storage"
)

// Differential tests for the subsample box pushdown: every answer must be
// bit-identical — output schema included — to gathering the whole input
// and running ops.Subsample over it.

// raggedSchema is a 2-pass array whose passes reach different depths on
// the unbounded x dimension (pass 1 stops at x = 5, pass 2 at x = 30).
func raggedSchema(name string) *array.Schema {
	return &array.Schema{
		Name: name,
		Dims: []array.Dimension{
			{Name: "p", High: 2, ChunkLen: 1},
			{Name: "x", High: array.Unbounded, ChunkLen: 8},
			{Name: "y", High: 4, ChunkLen: 4},
		},
		Attrs: []array.Attribute{{Name: "v", Type: array.TFloat64}},
	}
}

// raggedStride puts one pass × 8 x × 4 y block in each bucket.
var raggedStride = []int64{1, 8, 4}

// raggedCells visits the ragged array's cells: pass 1 fills x ≤ 5, pass 2
// fills x ≤ 30 except y = 4 beyond x = 20.
func raggedCells(fn func(c array.Coord, cell array.Cell)) {
	for p := int64(1); p <= 2; p++ {
		xmax := int64(5)
		if p == 2 {
			xmax = 30
		}
		for x := int64(1); x <= xmax; x++ {
			for y := int64(1); y <= 4; y++ {
				if p == 2 && y == 4 && x > 20 {
					continue
				}
				fn(array.Coord{p, x, y}, array.Cell{array.Float64(float64(p*1000+x*10+y) + 0.25)})
			}
		}
	}
}

// pushdownGrid builds a 2-node grid of the named kind holding the ragged
// array R, block-partitioned on p (node 0 owns pass 1, node 1 pass 2).
func pushdownGrid(t *testing.T, kind string) *cluster.Coordinator {
	t.Helper()
	var tr cluster.Transport
	switch kind {
	case "local-array":
		l := cluster.NewLocal(2)
		t.Cleanup(func() { l.Close() })
		tr = l
	case "local-store":
		l := cluster.NewLocalWithOptions(2, cluster.LocalOptions{Persist: true, Stride: raggedStride, CacheBytes: 4 << 20})
		t.Cleanup(func() { l.Close() })
		tr = l
	case "tcp-store":
		pool := bufcache.New(4 << 20)
		var addrs []string
		for i := 0; i < 2; i++ {
			w := cluster.NewWorkerWithOptions(i, cluster.WorkerOptions{Persist: true, Stride: raggedStride, Cache: pool})
			srv, err := cluster.NewServer(w, cluster.ServeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ln) }()
			t.Cleanup(func() {
				srv.Shutdown()
				<-done
				w.Close()
			})
			addrs = append(addrs, ln.Addr().String())
		}
		tcp, err := cluster.DialTCP(addrs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tcp.Close() })
		tr = tcp
	default:
		t.Fatalf("unknown grid kind %q", kind)
	}
	co := cluster.NewCoordinator(tr, 0)
	if err := co.Create("R", raggedSchema("R"), partition.Block{Nodes: 2, SplitDim: 0, High: 2}); err != nil {
		t.Fatal(err)
	}
	var perr error
	raggedCells(func(c array.Coord, cell array.Cell) {
		if perr == nil {
			perr = co.Put("R", c, cell)
		}
	})
	if perr != nil {
		t.Fatal(perr)
	}
	if err := co.Flush("R"); err != nil {
		t.Fatal(err)
	}
	return co
}

// subsampleOf parses a subsample query.
func subsampleOf(t *testing.T, q string) *parser.SubsampleExpr {
	t.Helper()
	stmt, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	qs, ok := stmt.(*parser.Query)
	if !ok {
		t.Fatalf("%q is not a query", q)
	}
	n, ok := qs.Expr.(*parser.SubsampleExpr)
	if !ok {
		t.Fatalf("%q is not a subsample", q)
	}
	return n
}

// checkPushdown runs q through the pushdown and through gather-then-
// subsample and requires identical answers. pushed says whether the box
// pushdown must apply (false: it must decline, leaving the gather).
func checkPushdown(t *testing.T, db *Database, q string, pushed bool) *array.Array {
	t.Helper()
	ctx := context.Background()
	n := subsampleOf(t, q)
	name := n.In.(*parser.Ref).Name
	var in *array.Array
	var err error
	if at := db.attached[name]; at != nil {
		// Materialize without caching: a cached attachment has nothing
		// left to push down.
		if in, err = insitu.Materialize(at.ds); err == nil {
			in.Schema.Name = name
		}
	} else {
		in, err = db.resolveRef(ctx, name)
	}
	if err != nil {
		t.Fatalf("%s: gather: %v", q, err)
	}
	conds, err := dimConds(n.Pred)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ops.Subsample(in, conds)
	if err != nil {
		t.Fatalf("%s: reference subsample: %v", q, err)
	}
	got, done, err := db.evalBoxSubsample(ctx, n)
	if err != nil {
		t.Fatalf("%s: pushdown: %v", q, err)
	}
	if done != pushed {
		t.Fatalf("%s: pushdown applied = %v, want %v", q, done, pushed)
	}
	if !done {
		r, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got = r.Array
	}
	sameSubsample(t, q, got, want)
	return got
}

// sameSubsample compares schema, bounds, cells (floats by bit pattern)
// and the retained original indices.
func sameSubsample(t *testing.T, what string, got, want *array.Array) {
	t.Helper()
	if !reflect.DeepEqual(got.Schema, want.Schema) {
		t.Fatalf("%s: schema %+v, want %+v", what, got.Schema, want.Schema)
	}
	if !reflect.DeepEqual(got.Bounds(), want.Bounds()) {
		t.Fatalf("%s: bounds %v, want %v", what, got.Bounds(), want.Bounds())
	}
	if got.Count() != want.Count() {
		t.Fatalf("%s: %d cells, want %d", what, got.Count(), want.Count())
	}
	want.Iter(func(c array.Coord, w array.Cell) bool {
		g, ok := got.At(c)
		if !ok || len(g) != len(w) {
			t.Fatalf("%s: cell %v missing", what, c)
		}
		for i := range w {
			if g[i].Null != w[i].Null || math.Float64bits(g[i].Float) != math.Float64bits(w[i].Float) {
				t.Fatalf("%s: cell %v = %v, want %v", what, c, g, w)
			}
		}
		return true
	})
	all := array.Box{Lo: make(array.Coord, len(want.Schema.Dims)), Hi: want.Bounds()}
	for d := range all.Lo {
		all.Lo[d] = 1
	}
	array.IterBox(all, func(c array.Coord) bool {
		if !reflect.DeepEqual(got.Enhancements[0].Map(c), want.Enhancements[0].Map(c)) {
			t.Fatalf("%s: original index of %v differs", what, c)
		}
		return true
	})
}

// raggedQueries pairs each subsample shape under test with whether the
// box pushdown must take it.
var raggedQueries = []struct {
	q      string
	pushed bool
}{
	{"subsample(R, p = 1)", true},                                    // ragged: x extent comes from pass 2
	{"subsample(R, p = 2 and x >= 25 and x <= 60)", true},            // box reaches past the data
	{"subsample(R, x > 9 and x < 4)", true},                          // empty box
	{"subsample(R, p = 2 and x >= 9 and x <= 16)", true},             // whole buckets: chunk adoption
	{"subsample(R, x >= 3 and x <= 12 and y >= 2)", true},            // box cuts buckets
	{"subsample(R, y = 4)", true},                                    // ragged on y as well
	{"subsample(R, even(x))", false},                                 // not a box: gather
	{"subsample(R, p = 2 and odd(y) and x <= 10)", false},            // mixed: gather
	{"subsample(R, p >= 1 and p <= 2 and x >= 1 and x <= 30)", true}, // the whole array
}

func TestBoxPushdownMatchesGather(t *testing.T) {
	for _, kind := range []string{"local-array", "local-store", "tcp-store"} {
		t.Run(kind, func(t *testing.T) {
			co := pushdownGrid(t, kind)
			db := testDB()
			db.AttachCluster(co)
			for _, c := range raggedQueries {
				checkPushdown(t, db, c.q, c.pushed)
			}
			// The ragged repro: pass 1 alone ends at x = 5, but the gather
			// plan sizes x from pass 2's extent.
			got := checkPushdown(t, db, "subsample(R, p = 1)", true)
			if h := got.Schema.Dims[1].High; h != 30 {
				t.Errorf("subsample(R, p = 1) x High = %d, want 30", h)
			}
			// A write moves the extent: the cached extent must not survive
			// it. A staged cell is invisible to both plans until it is
			// flushed, so the extent cached in between must not survive
			// the flush either.
			if err := co.Put("R", array.Coord{1, 41, 1}, array.Cell{array.Float64(7)}); err != nil {
				t.Fatal(err)
			}
			got = checkPushdown(t, db, "subsample(R, p = 2)", true)
			if h := got.Schema.Dims[1].High; h != 30 {
				t.Errorf("x High with a staged write = %d, want 30", h)
			}
			if err := co.Flush("R"); err != nil {
				t.Fatal(err)
			}
			got = checkPushdown(t, db, "subsample(R, p = 2 and x <= 3)", true)
			if h := got.Schema.Dims[1].High; h != 3 {
				t.Errorf("x High after write = %d, want 3", h)
			}
			got = checkPushdown(t, db, "subsample(R, p = 2)", true)
			if h := got.Schema.Dims[1].High; h != 41 {
				t.Errorf("x High after write = %d, want 41", h)
			}
		})
	}
}

// TestBoxPushdownLocalShadowsCluster: a local array with a cluster array's
// name wins, exactly as in resolveRef; the pushdown must not read the grid.
func TestBoxPushdownLocalShadowsCluster(t *testing.T) {
	co := pushdownGrid(t, "local-store")
	db := testDB()
	db.AttachCluster(co)
	local := array.MustNew(raggedSchema("R"))
	if err := local.Set(array.Coord{1, 2, 3}, array.Cell{array.Float64(-1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.PutArray("R", local); err != nil {
		t.Fatal(err)
	}
	got := checkPushdown(t, db, "subsample(R, p = 1 and x <= 4)", false)
	if got.Count() != 1 {
		t.Fatalf("shadowed subsample returned %d cells, want the local array's 1", got.Count())
	}
}

// TestBoxPushdownRoutedReplicas: after a rebalancing round has replicated
// a hot chunk, every node holding a copy the plan does not read gets an
// exclude box; the pushdown must still match the gather bit for bit.
func TestBoxPushdownRoutedReplicas(t *testing.T) {
	for _, kind := range []string{"local-store", "tcp-store"} {
		t.Run(kind, func(t *testing.T) {
			co := pushdownGrid(t, kind)
			if _, err := co.EnableRouting("R", raggedStride); err != nil {
				t.Fatal(err)
			}
			hot := array.Box{Lo: array.Coord{2, 1, 1}, Hi: array.Coord{2, 8, 4}}
			for i := 0; i < 20; i++ {
				if _, err := co.Scan("R", hot); err != nil {
					t.Fatal(err)
				}
			}
			_, replicated, err := co.RebalanceOnce("R", cluster.RebalanceOptions{TopK: 1, Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			if replicated == 0 {
				t.Fatal("rebalancing installed no replica")
			}
			db := testDB()
			db.AttachCluster(co)
			// Reader rotation alternates between the replicas, so run each
			// query twice to exercise both exclude-list placements.
			for i := 0; i < 2; i++ {
				for _, c := range raggedQueries {
					checkPushdown(t, db, c.q, c.pushed)
				}
			}
		})
	}
}

// TestStoreSubsampleExtent is the store repro: with an unbounded x, the
// pushdown's output schema must use the whole store's x extent.
func TestStoreSubsampleExtent(t *testing.T) {
	db := testDB()
	st, err := storage.NewStore(raggedSchema("U"), storage.Options{Stride: raggedStride, CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var perr error
	raggedCells(func(c array.Coord, cell array.Cell) {
		if perr == nil {
			perr = st.Put(c, cell)
		}
	})
	if perr != nil {
		t.Fatal(perr)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachStore("U", st); err != nil {
		t.Fatal(err)
	}
	for _, c := range raggedQueries {
		checkPushdown(t, db, strings.Replace(c.q, "(R,", "(U,", 1), c.pushed)
	}
	got := checkPushdown(t, db, "subsample(U, p = 1)", true)
	if h := got.Schema.Dims[1].High; h != 30 {
		t.Errorf("subsample(U, p = 1) x High = %d, want 30", h)
	}
	// Unflushed cells count too (the store refuses chunk delivery then).
	if err := st.Put(array.Coord{1, 33, 2}, array.Cell{array.Float64(1)}); err != nil {
		t.Fatal(err)
	}
	got = checkPushdown(t, db, "subsample(U, p = 1)", true)
	if h := got.Schema.Dims[1].High; h != 33 {
		t.Errorf("x High with buffered cells = %d, want 33", h)
	}
}

// raggedCSV writes the ragged array as a CSV file; xDim declares x ("x"
// leaves it unbounded, "x:32" bounds it past the data).
func raggedCSV(t *testing.T, xDim string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# scidb-csv\n# dims: p:2, " + xDim + ", y:4\n# attrs: v:float\n")
	raggedCells(func(c array.Coord, cell array.Cell) {
		fmt.Fprintf(&b, "%d,%d,%d,%v\n", c[0], c[1], c[2], cell[0].Float)
	})
	path := filepath.Join(t.TempDir(), "ragged.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBoxPushdownDistributedInsitu: a file registered across the grid
// (CREATE ARRAY ... FROM FILE) answers from the workers' lazily
// materialized slabs; their extents come from the file. x is declared to
// 32 but filled only to 30, and a gather sizes by the cells, not the bound.
func TestBoxPushdownDistributedInsitu(t *testing.T) {
	for _, kind := range []string{"local-store", "tcp-store"} {
		t.Run(kind, func(t *testing.T) {
			db := testDB()
			db.AttachCluster(pushdownGrid(t, kind))
			r := exec(t, db, "create array F from file '"+raggedCSV(t, "x:32")+"' using csv")
			if !strings.Contains(r.Msg, "across 2 nodes") {
				t.Fatalf("file not registered on the grid: %q", r.Msg)
			}
			for _, c := range raggedQueries {
				checkPushdown(t, db, strings.Replace(c.q, "(R,", "(F,", 1), c.pushed)
			}
		})
	}
}

// TestAttachedSubsampleExtent is the in-situ repro: a CSV attachment with
// an unbounded x dimension.
func TestAttachedSubsampleExtent(t *testing.T) {
	path := raggedCSV(t, "x")
	db := testDB()
	exec(t, db, "attach A from '"+path+"' using csv")
	// Box queries first: a gathered query caches the whole dataset, after
	// which nothing is left to push down.
	for _, pushed := range []bool{true, false} {
		for _, c := range raggedQueries {
			if c.pushed == pushed {
				checkPushdown(t, db, strings.Replace(c.q, "(R,", "(A,", 1), c.pushed)
			}
		}
	}
}
