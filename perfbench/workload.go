package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"scidb/internal/array"
	"scidb/internal/cook"
	"scidb/internal/core"
	"scidb/internal/partition"
)

// Every workload runs one statement template; only its parameters vary.
const (
	slabSide   = 32 // slab box edge: 32×32 = 1,024 cells per answer
	scanThresh = 8  // distinct cloud thresholds a scan run draws from
	chunkXY    = 64 // bucket stride on x and y (one pass per bucket)
)

// spec fixes one workload's shape.
type spec struct {
	name    string
	passes  int64 // passes generated (and, except for ingest, loaded at set-up)
	side    int64 // pixels per pass edge
	clients int   // closed-loop clients
	warmup  int   // operations run at the end of every set-up
	// poolShare sizes the shared buffer pool as a multiple of the decoded
	// bytes of the loaded array (ingest: of one pass file). The pool splits
	// its budget evenly over 8 shards, so "fits" means 16: every bucket
	// would fit even if all hashed to one shard.
	poolShare float64
}

var specs = map[string]spec{
	"slab":   {name: "slab", passes: 4, side: 128, clients: 2, warmup: 8, poolShare: 16},
	"scan":   {name: "scan", passes: 8, side: 128, clients: 1, warmup: 3, poolShare: 0.25},
	"ingest": {name: "ingest", passes: 4, side: 128, clients: 1, warmup: 4, poolShare: 16},
}

// op is one operation of a workload's template, with its drawn parameters.
type op struct {
	text      string // statement (slab, scan)
	pass      int64  // slab: pass read; ingest: pass file loaded
	x0, y0    int64  // slab: box origin
	threshold int    // scan: index into inputs.thresholds
}

// opStream draws one client's operations from the run seed. Scan
// thresholds and ingest files are dealt from a reshuffled deck, so every
// one of them is used equally often and a run's mix of work does not
// depend on the seed.
type opStream struct {
	sp   spec
	in   *inputs
	rng  *rand.Rand
	deck []int
}

func newOpStream(sp spec, in *inputs, seed int64, client int) *opStream {
	return &opStream{sp: sp, in: in, rng: rand.New(rand.NewSource(seed*7919 + int64(client) + 1))}
}

// deal returns the next card of a deck of n, reshuffling when it is empty.
func (s *opStream) deal(n int) int {
	if len(s.deck) == 0 {
		s.deck = s.rng.Perm(n)
	}
	c := s.deck[0]
	s.deck = s.deck[1:]
	return c
}

func (s *opStream) next() op {
	switch s.sp.name {
	case "slab":
		p := 1 + s.rng.Int63n(s.sp.passes)
		x := 1 + s.rng.Int63n(s.sp.side-slabSide+1)
		y := 1 + s.rng.Int63n(s.sp.side-slabSide+1)
		return op{pass: p, x0: x, y0: y, text: slabText(p, x, y)}
	case "scan":
		i := s.deal(len(s.in.thresholds))
		return op{threshold: i, text: scanText(s.in.thresholds[i])}
	default:
		return op{pass: 1 + int64(s.deal(int(s.sp.passes)))}
	}
}

func slabText(p, x, y int64) string {
	return fmt.Sprintf("subsample(raw, pass = %d and x >= %d and x < %d and y >= %d and y < %d)",
		p, x, x+slabSide, y, y+slabSide)
}

func scanText(t float64) string {
	return fmt.Sprintf("aggregate(apply(filter(raw, cloud < %s), r = dn * 0.01 - 2), {pass}, avg(r))",
		strconv.FormatFloat(t, 'f', 4, 64))
}

// inputs are everything generated from the seed before set-up starts: the
// pass files on disk and the references answers are checked against.
type inputs struct {
	src        *array.Array   // generated passes, chunked like the loaded array
	files      []string       // one CSV per pass, pass order
	thresholds []float64      // scan: cloud thresholds
	scanRef    []*array.Array // scan: single-node answer per threshold
	fileCount  []int64        // ingest: cells per pass file
	fileDNSum  []float64      // ingest: dn sum per pass file
	decoded    int64          // decoded bytes of the loaded array (ingest: of one pass)
}

// rawSchema is the loaded array: one pass per bucket, 64×64 pixels.
func rawSchema(name string, passes, side int64) *array.Schema {
	return &array.Schema{
		Name: name,
		Dims: []array.Dimension{
			{Name: "pass", High: passes, ChunkLen: 1},
			{Name: "x", High: side, ChunkLen: chunkXY},
			{Name: "y", High: side, ChunkLen: chunkXY},
		},
		Attrs: []array.Attribute{
			{Name: cook.AttrDN, Type: array.TFloat64},
			{Name: cook.AttrCloud, Type: array.TFloat64},
			{Name: cook.AttrNadir, Type: array.TFloat64},
		},
	}
}

// scheme block-partitions on x, so every pass spans both workers.
func scheme(side int64) partition.Scheme {
	return partition.Block{Nodes: 2, SplitDim: 1, High: side}
}

// makeInputs generates the passes, writes one CSV per pass under dir, and
// computes the references.
func makeInputs(sp spec, seed int64, dir string) (*inputs, error) {
	gen, err := cook.GeneratePasses(cook.Config{
		Width: sp.side, Height: sp.side, Passes: sp.passes, Seed: seed,
		CloudFraction: 0.3, Gain: 0.01, Offset: -2,
	})
	if err != nil {
		return nil, err
	}
	src, err := array.New(rawSchema("raw", sp.passes, sp.side))
	if err != nil {
		return nil, err
	}
	var setErr error
	gen.Iter(func(c array.Coord, cell array.Cell) bool {
		setErr = src.Set(c.Clone(), cell.Clone())
		return setErr == nil
	})
	if setErr != nil {
		return nil, setErr
	}
	in := &inputs{src: src, decoded: src.ByteSize()}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for p := int64(1); p <= sp.passes; p++ {
		path := filepath.Join(dir, fmt.Sprintf("pass-%d.csv", p))
		n, sum, err := writePass(path, src, p)
		if err != nil {
			return nil, err
		}
		in.files = append(in.files, path)
		in.fileCount = append(in.fileCount, n)
		in.fileDNSum = append(in.fileDNSum, sum)
	}
	switch sp.name {
	case "ingest":
		in.decoded /= sp.passes
	case "scan":
		rng := rand.New(rand.NewSource(seed))
		db := core.Open()
		if err := db.PutArray("raw", src); err != nil {
			return nil, err
		}
		for i := 0; i < scanThresh; i++ {
			// One threshold in each twentieth of [0.1, 0.5), so every
			// seed filters about the same share of cells. Parsed back from
			// the statement text, so the reference and the grid evaluate
			// the same constant.
			t := 0.1 + 0.05*(float64(i)+rng.Float64())
			t, _ = strconv.ParseFloat(strconv.FormatFloat(t, 'f', 4, 64), 64)
			res, err := db.Exec(scanText(t))
			if err != nil {
				return nil, fmt.Errorf("scan reference: %w", err)
			}
			in.thresholds = append(in.thresholds, t)
			in.scanRef = append(in.scanRef, res.Array)
		}
	}
	return in, nil
}

// writePass writes pass p of src in the CSV adaptor's dialect, floats in
// their shortest exact form so the loaded cells equal the generated ones
// bit for bit. It returns the cell count and the dn sum.
func writePass(path string, src *array.Array, p int64) (int64, float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	s := src.Schema
	fmt.Fprintf(w, "# scidb-csv\n# dims: pass:%d, x:%d, y:%d\n# attrs: dn:float, cloud:float, nadir:float\n",
		s.Dims[0].High, s.Dims[1].High, s.Dims[2].High)
	var n int64
	var sum float64
	buf := make([]byte, 0, 96)
	src.Iter(func(c array.Coord, cell array.Cell) bool {
		if c[0] != p {
			return true
		}
		buf = buf[:0]
		for _, v := range c {
			buf = strconv.AppendInt(buf, v, 10)
			buf = append(buf, ',')
		}
		for i, v := range cell {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v.Float, 'g', -1, 64)
		}
		buf = append(buf, '\n')
		w.Write(buf)
		n++
		sum += cell[0].Float
		return true
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return n, sum, f.Close()
}

// checkSlab verifies a box answer: exactly the box's cells, re-indexed from
// 1 by subsample, each bit-identical to the generated cell.
func checkSlab(in *inputs, o op, got *array.Array) error {
	if got == nil {
		return fmt.Errorf("slab: no array returned")
	}
	if n := got.Count(); n != slabSide*slabSide {
		return fmt.Errorf("slab %s: %d cells, want %d", o.text, n, slabSide*slabSide)
	}
	var bad error
	got.Iter(func(c array.Coord, cell array.Cell) bool {
		at := array.Coord{o.pass, o.x0 + c[1] - 1, o.y0 + c[2] - 1}
		if c[0] != 1 || c[1] < 1 || c[1] > slabSide || c[2] < 1 || c[2] > slabSide {
			bad = fmt.Errorf("slab %s: unexpected coordinate %v", o.text, c)
			return false
		}
		want, ok := in.src.PeekAt(at) // PeekAt: clients check concurrently
		if !ok || !sameCell(cell, want) {
			bad = fmt.Errorf("slab %s: cell %v = %v, want %v", o.text, at, cell, want)
			return false
		}
		return true
	})
	return bad
}

// sameArray verifies got holds exactly want's cells, bit for bit.
func sameArray(what string, got, want *array.Array) error {
	if got == nil {
		return fmt.Errorf("%s: no array returned", what)
	}
	if got.Count() != want.Count() {
		return fmt.Errorf("%s: %d cells, want %d", what, got.Count(), want.Count())
	}
	var bad error
	want.Iter(func(c array.Coord, w array.Cell) bool {
		g, ok := got.At(c)
		if !ok || !sameCell(g, w) {
			bad = fmt.Errorf("%s: cell %v = %v, want %v", what, c, g, w)
			return false
		}
		return true
	})
	return bad
}

// sameCell compares values exactly: floats by bit pattern.
func sameCell(a, b array.Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Null != b[i].Null {
			return false
		}
		if a[i].Type == array.TFloat64 && b[i].Type == array.TFloat64 {
			if math.Float64bits(a[i].Float) != math.Float64bits(b[i].Float) {
				return false
			}
			continue
		}
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// checkIngest verifies a load by its count and dn sum. The sum is folded
// in storage order, which concurrent shards make unspecified, so it is
// compared within 1e-9 relative: far below one cell's dn (about 400 to
// 2,000), far above the rounding of a 16,384-term sum.
func checkIngest(in *inputs, o op, count int64, dnSum float64) error {
	i := o.pass - 1
	if count != in.fileCount[i] {
		return fmt.Errorf("ingest pass %d: count %d, want %d", o.pass, count, in.fileCount[i])
	}
	if want := in.fileDNSum[i]; math.Abs(dnSum-want) > 1e-9*math.Abs(want) {
		return fmt.Errorf("ingest pass %d: dn sum %.17g, want %.17g", o.pass, dnSum, want)
	}
	return nil
}
