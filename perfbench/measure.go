package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/cluster"
	"scidb/internal/exec"
	"scidb/internal/loader"
	"scidb/internal/obs"
	"scidb/internal/parser"
	"scidb/internal/storage"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// runner executes one workload's operations against a grid and checks
// every answer.
type runner struct {
	sp    spec
	in    *inputs
	g     *grid
	rec   *recorder // nil in an untraced run
	log   io.Writer
	names atomic.Int64 // ingest array names

	// cells counts cells delivered in answers (slab, scan) or loaded
	// (ingest); parseNanos the client-side parser.Parse time of traced
	// operations.
	cells      atomic.Int64
	parseNanos atomic.Int64
	dest       destTimes

	// ingestStore sums each ingest operation's storage counters, read just
	// before its array is dropped (a dropped store takes its counters with
	// it).
	mu          sync.Mutex
	ingestStore storage.Stats
}

// do runs one operation on client c and checks its answer. id is the
// operation's span (0 when not traced).
func (r *runner) do(c int, o op, id int64) error {
	if r.sp.name == "ingest" {
		return r.ingest(o, id)
	}
	if id != 0 {
		t0 := time.Now()
		_, err := parser.Parse(o.text)
		t1 := time.Now()
		r.parseNanos.Add(int64(t1.Sub(t0)))
		r.rec.record("parse", 0, id, t0, t1)
		if err != nil {
			return err
		}
	}
	res, err := r.g.clients[c].Exec(o.text)
	if err != nil {
		return err
	}
	if res.Array != nil {
		r.cells.Add(res.Array.Count())
	}
	if r.sp.name == "slab" {
		return checkSlab(r.in, o, res.Array)
	}
	return sameArray(o.text, res.Array, r.in.scanRef[o.threshold])
}

// ingest creates a distributed array, bulk-loads one pass file into it,
// checks count and dn sum, and drops it.
func (r *runner) ingest(o op, id int64) (err error) {
	co := r.g.co
	name := fmt.Sprintf("ingest_%d", r.names.Add(1))
	s := rawSchema(name, r.sp.passes, r.sp.side)
	if err := co.Create(name, s, scheme(r.sp.side)); err != nil {
		return err
	}
	defer func() {
		if derr := co.Drop(name); err == nil {
			err = derr
		}
	}()
	var dest loader.ChunkDest = loader.ClusterDest{Co: co, Array: name}
	if r.rec != nil {
		dest = tracedDest{inner: dest, rec: r.rec, op: id, times: &r.dest}
	}
	n, err := loadFile(r.in.files[o.pass-1], s, dest)
	if err != nil {
		return err
	}
	r.cells.Add(n)
	count, err := co.Count(name)
	if err != nil {
		return err
	}
	agg, err := co.Aggregate(name, array.WholeBox(s), "sum", "dn", nil)
	if err != nil {
		return err
	}
	var sum float64
	agg.Iter(func(_ array.Coord, cell array.Cell) bool {
		sum = cell[0].Float
		return false
	})
	st := r.g.storeTotals() // this operation's array is the only one held
	r.mu.Lock()
	r.ingestStore = r.ingestStore.Add(st)
	r.mu.Unlock()
	return checkIngest(r.in, o, count, sum)
}

// snapshot is every counter the benchmark reads, taken at the edges of a
// timed window (local reads only, no wire calls).
type snapshot struct {
	at      time.Time
	cpu     time.Duration
	mem     runtime.MemStats
	exec    exec.Stats
	pool    bufcache.Stats
	store   storage.Stats
	wire    cluster.TransportStats
	def     obs.Snapshot
	sess    obs.Snapshot
	workers []obs.Snapshot
	cells   int64
	parse   int64
	ship    int64
	flush   int64
	calls   int64
	wait    time.Duration
}

func (r *runner) snapshot() snapshot {
	s := snapshot{
		at:    time.Now(),
		cpu:   processCPU(),
		exec:  exec.Default().Stats(),
		pool:  r.g.pool.Stats(),
		wire:  r.g.tcp.TransportStats(),
		def:   obs.Default().Snapshot(),
		cells: r.cells.Load(),
		parse: r.parseNanos.Load(),
		ship:  r.dest.ship.Load(),
		flush: r.dest.flush.Load(),
	}
	runtime.ReadMemStats(&s.mem)
	if r.sp.name == "ingest" {
		r.mu.Lock()
		s.store = r.ingestStore
		r.mu.Unlock()
	} else {
		s.store = r.g.storeTotals()
	}
	if r.g.sessReg != nil {
		s.sess = r.g.sessReg.Snapshot()
	}
	for _, w := range r.g.workers {
		s.workers = append(s.workers, w.Registry().Snapshot())
	}
	if t := r.g.traced; t != nil {
		s.calls = t.calls.Load()
		s.wait = t.wait.Total()
	}
	return s
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes reads the process's resident set size.
func residentBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * int64(os.Getpagesize()), nil
}

// window is one timed phase of closed-loop operations.
type window struct {
	lat       []time.Duration // every operation, failed ones included
	attempted int64
	failed    int64
	elapsed   time.Duration
	rss       []int64
	before    snapshot
	after     snapshot
}

func (w *window) okPerSecond() float64 {
	return float64(w.attempted-w.failed) / w.elapsed.Seconds()
}

// warmup runs n operations, round-robin over the clients, from streams of
// their own; any failure fails the set-up.
func (r *runner) warmup(seed int64, n int) error {
	streams := make([]*opStream, r.sp.clients)
	for c := range streams {
		streams[c] = newOpStream(r.sp, r.in, seed, 1000+c)
	}
	for i := 0; i < n; i++ {
		c := i % r.sp.clients
		if err := r.do(c, streams[c].next(), 0); err != nil {
			return fmt.Errorf("warm-up operation %d: %w", i, err)
		}
	}
	return nil
}

// measure runs the clients in a closed loop: each sends its next operation
// when the previous one has answered. The window lasts dur, and longer if
// fewer than minOps operations have completed, up to limit.
func (r *runner) measure(streams []*opStream, dur time.Duration, minOps int64, limit time.Duration) *window {
	runtime.GC()
	w := &window{before: r.snapshot()}
	start := w.before.at
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if b, err := residentBytes(); err == nil {
				w.rss = append(w.rss, b)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	var done atomic.Int64
	lats := make([][]time.Duration, len(streams))
	failed := make([]int64, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				el := time.Since(start)
				if (el >= dur && done.Load() >= minOps) || el >= limit {
					return
				}
				o := streams[c].next()
				var id int64
				if r.rec != nil {
					id = r.rec.beginOp()
				}
				t0 := time.Now()
				err := r.do(c, o, id)
				t1 := time.Now()
				if r.rec != nil {
					r.rec.endOp(id, r.sp.name, t0, t1)
				}
				lats[c] = append(lats[c], t1.Sub(t0))
				done.Add(1)
				if err != nil {
					if failed[c] < 3 {
						fmt.Fprintf(r.log, "perfbench: %s operation failed: %v\n", r.sp.name, err)
					}
					failed[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	w.after = r.snapshot()
	w.elapsed = w.after.at.Sub(start)
	close(stop)
	sampler.Wait()
	for c := range streams {
		w.lat = append(w.lat, lats[c]...)
		w.failed += failed[c]
	}
	w.attempted = int64(len(w.lat))
	return w
}

// percentile returns the q-quantile of sorted samples by nearest rank, and
// whether at least minBeyond samples lie beyond it — the condition for
// reporting it.
func percentile[T int64 | time.Duration](sorted []T, q float64) (T, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of an untraced window.
func endToEnd(r *runner, w *window, setup []time.Duration) (map[string]metric, string, error) {
	ops := float64(w.attempted)
	p50, p90, note, err := latencies(w.lat)
	if err != nil {
		return nil, "", err
	}
	rss := append([]int64(nil), w.rss...)
	sort.Slice(rss, func(i, j int) bool { return rss[i] < rss[j] })
	rss90, _ := percentile(rss, 0.9)

	var stored float64
	if r.sp.name == "ingest" {
		stored = float64(w.after.store.BytesWritten-w.before.store.BytesWritten) /
			float64(w.after.cells-w.before.cells)
	} else {
		stored = float64(w.after.store.BytesWritten) / float64(r.g.cells)
	}
	m := map[string]metric{
		"ops_per_s":             {w.okPerSecond(), "op/s"},
		"latency_p50_ms":        {ms(p50), "ms"},
		"latency_p90_ms":        {ms(p90), "ms"},
		"ok_ratio":              {float64(w.attempted-w.failed) / ops, "1"},
		"setup_s":               {median(setup).Seconds(), "s"},
		"cpu_ms_per_op":         {ms(w.after.cpu-w.before.cpu) / ops, "ms"},
		"alloc_mb_per_op":       {float64(w.after.mem.TotalAlloc-w.before.mem.TotalAlloc) / 1e6 / ops, "MB"},
		"rss_p90_mb":            {float64(rss90) / 1e6, "MB"},
		"stored_bytes_per_cell": {stored, "B"},
	}
	return m, fmt.Sprintf("%s; rss over %d samples", note, len(rss)), nil
}

// latencies returns the median and p90 of the samples, and a note giving
// the sample count. It fails unless ten samples lie beyond p90.
func latencies(samples []time.Duration) (p50, p90 time.Duration, note string, err error) {
	lat := append([]time.Duration(nil), samples...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50, _ = percentile(lat, 0.5)
	p90, ok := percentile(lat, 0.9)
	beyond := len(lat) - int(math.Ceil(0.9*float64(len(lat))))
	if !ok {
		return 0, 0, "", fmt.Errorf("%d latency samples, %d beyond p90: need %d", len(lat), beyond, minBeyond)
	}
	return p50, p90, fmt.Sprintf("latency over n=%d operations (%d beyond p90)", len(lat), beyond), nil
}

// perLayer computes the per-layer metrics of a traced window; untraced is
// the ops/s of the untraced window run on the same set-up just before it.
func perLayer(r *runner, w *window, untraced float64) map[string]metric {
	b, a := w.before, w.after
	ops := float64(w.attempted)
	per := func(v float64) float64 { return v / ops }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	defDelta := func(name string) float64 {
		av, _ := a.def.Get(name)
		bv, _ := b.def.Get(name)
		return av - bv
	}
	var workerBusy, scanned float64
	for i := range a.workers {
		av, _ := a.workers[i].Get("scidb_worker_request_seconds_sum")
		bv, _ := b.workers[i].Get("scidb_worker_request_seconds_sum")
		workerBusy += av - bv
		av, _ = a.workers[i].Get("scidb_worker_cells_scanned_total")
		bv, _ = b.workers[i].Get("scidb_worker_cells_scanned_total")
		scanned += av - bv
	}
	var meanLat time.Duration
	for _, d := range w.lat {
		meanLat += d
	}
	cells := float64(a.cells - b.cells)
	loaded := 0.0
	if r.sp.name == "ingest" {
		loaded = cells
	}
	wait := per(ms(a.wait - b.wait))
	var overhead, admission, execMs, self float64
	if r.g.sessReg != nil {
		execMs = per(defDelta("scidb_query_seconds_sum") * 1e3)
		overhead = per(ms(meanLat)) - execMs
		av, _ := a.sess.Get("scidb_admission_wait_seconds_interactive_sum")
		bv, _ := b.sess.Get("scidb_admission_wait_seconds_interactive_sum")
		admission = per((av - bv) * 1e3)
		self = execMs - wait
	}
	st := storageDelta(b.store, a.store)
	pool := poolDelta(b.pool, a.pool)
	ex := execDelta(b.exec, a.exec)
	return map[string]metric{
		"session.overhead_ms":            {overhead, "ms"},
		"session.admission_wait_ms":      {admission, "ms"},
		"parser.parse_us":                {per(float64(a.parse-b.parse) / 1e3), "us"},
		"core.exec_ms":                   {execMs, "ms"},
		"core.self_ms":                   {self, "ms"},
		"cluster.calls_per_op":           {per(float64(a.calls - b.calls)), "count"},
		"cluster.wait_ms":                {wait, "ms"},
		"cluster.bytes_in_per_op":        {per(float64(a.wire.BytesIn - b.wire.BytesIn)), "B"},
		"cluster.bytes_out_per_op":       {per(float64(a.wire.BytesOut - b.wire.BytesOut)), "B"},
		"cluster.worker_busy_ms":         {per(workerBusy * 1e3), "ms"},
		"cluster.useful_cell_ratio":      {ratio(cells, scanned), "1"},
		"storage.buckets_read_per_op":    {per(float64(st.BucketsRead)), "count"},
		"storage.bytes_read_per_op":      {per(float64(st.BytesRead)), "B"},
		"storage.chunk_skip_ratio":       {ratio(float64(st.ChunksSkipped), float64(st.ChunksSkipped+st.ChunksVisited)), "1"},
		"storage.bytes_written_per_cell": {ratio(float64(st.BytesWritten), loaded), "B"},
		"bufcache.hit_ratio":             {ratio(float64(pool.Hits), float64(pool.Hits+pool.Misses)), "1"},
		"bufcache.evictions_per_op":      {per(float64(pool.Evictions)), "count"},
		"exec.tasks_per_op":              {per(float64(ex.TasksRun)), "count"},
		"exec.parallel_share":            {ratio(float64(ex.ParallelRuns), float64(ex.ParallelRuns+ex.SerialRuns)), "1"},
		"exec.saturation_per_op":         {per(float64(ex.Saturation)), "count"},
		"loader.parse_ms":                {per(defDelta("scidb_load_parse_nanos_total") / 1e6), "ms"},
		"loader.encode_ms":               {per(defDelta("scidb_load_encode_nanos_total") / 1e6), "ms"},
		"loader.ship_ms":                 {per(defDelta("scidb_load_ship_nanos_total") / 1e6), "ms"},
		"loader.ship_wait_ms":            {per(float64(a.ship-b.ship) / 1e6), "ms"},
		"loader.flush_ms":                {per(float64(a.flush-b.flush) / 1e6), "ms"},
		"loader.bytes_shipped_per_cell":  {ratio(defDelta("scidb_load_bytes_shipped_total"), loaded), "B"},
		"runtime.gc_cycles_per_op":       {per(float64(a.mem.NumGC - b.mem.NumGC)), "count"},
		"runtime.gc_pause_ms_per_op":     {per(float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6), "ms"},
		"trace.ops_ratio":                {ratio(w.okPerSecond(), untraced), "1"},
	}
}

func storageDelta(b, a storage.Stats) storage.Stats {
	return storage.Stats{
		BucketsRead:   a.BucketsRead - b.BucketsRead,
		BytesRead:     a.BytesRead - b.BytesRead,
		BytesWritten:  a.BytesWritten - b.BytesWritten,
		ChunksVisited: a.ChunksVisited - b.ChunksVisited,
		ChunksSkipped: a.ChunksSkipped - b.ChunksSkipped,
	}
}

func poolDelta(b, a bufcache.Stats) bufcache.Stats {
	return bufcache.Stats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Evictions: a.Evictions - b.Evictions}
}

func execDelta(b, a exec.Stats) exec.Stats {
	return exec.Stats{
		TasksRun:     a.TasksRun - b.TasksRun,
		ParallelRuns: a.ParallelRuns - b.ParallelRuns,
		SerialRuns:   a.SerialRuns - b.SerialRuns,
		Saturation:   a.Saturation - b.Saturation,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
