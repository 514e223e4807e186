package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"scidb/internal/cluster"
	"scidb/internal/loader"
)

// maxSpans bounds the recorder's memory; later spans are counted, not kept.
const maxSpans = 1 << 18

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   int    `json:"node,omitempty"` // worker node + 1 for wire calls
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory while armed; write dumps them at the end
// of the run. A span's parent is the benchmark operation that caused it
// when exactly one operation is in flight (always so with one client);
// with several clients a wire call cannot be attributed and has no parent.
type recorder struct {
	origin  time.Time
	armed   atomic.Bool
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
	active  map[int64]struct{}
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), active: map[int64]struct{}{}}
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.origin)) }

// beginOp opens an operation span and returns its id (0 when disarmed).
func (r *recorder) beginOp() int64 {
	if !r.armed.Load() {
		return 0
	}
	id := r.nextID.Add(1)
	r.mu.Lock()
	r.active[id] = struct{}{}
	r.mu.Unlock()
	return id
}

// endOp closes an operation span opened by beginOp.
func (r *recorder) endOp(id int64, name string, start, end time.Time) {
	if id == 0 {
		return
	}
	r.mu.Lock()
	delete(r.active, id)
	r.mu.Unlock()
	r.add(span{ID: id, Name: name, Start: r.since(start), End: r.since(end)})
}

// soleOp returns the operation in flight when there is exactly one, else 0.
func (r *recorder) soleOp() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.active) == 1 {
		for id := range r.active {
			return id
		}
	}
	return 0
}

// record adds a child span of operation parent (0: none known).
func (r *recorder) record(name string, node int, parent int64, start, end time.Time) {
	r.add(span{ID: r.nextID.Add(1), Parent: parent, Name: name, Node: node,
		Start: r.since(start), End: r.since(end)})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// write dumps the spans as JSON lines, one span per line, followed by a
// line counting the spans dropped past maxSpans.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	err = enc.Encode(map[string]int64{"dropped": r.dropped})
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// intervalUnion accumulates the total time at least one interval is open:
// the wall time the coordinator spent waiting on the wire, however many
// calls overlap.
type intervalUnion struct {
	now      func() time.Time
	mu       sync.Mutex
	inflight int
	since    time.Time
	total    time.Duration
}

func (u *intervalUnion) enter() time.Time {
	u.mu.Lock()
	defer u.mu.Unlock()
	t := u.now()
	if u.inflight == 0 {
		u.since = t
	}
	u.inflight++
	return t
}

func (u *intervalUnion) exit() time.Time {
	u.mu.Lock()
	defer u.mu.Unlock()
	t := u.now()
	u.inflight--
	if u.inflight == 0 {
		u.total += t.Sub(u.since)
	}
	return t
}

func (u *intervalUnion) Total() time.Duration {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.total
}

// tracedTransport wraps the grid's transport. While its recorder is armed
// it records one span per Call, counts calls, and accumulates the union of
// in-flight call intervals. It forwards TransportStats so the loader's
// RTT-adaptive batch size is the same traced or not.
type tracedTransport struct {
	inner cluster.Transport
	rec   *recorder
	calls atomic.Int64
	wait  intervalUnion
}

func newTracedTransport(inner cluster.Transport, rec *recorder) *tracedTransport {
	return &tracedTransport{inner: inner, rec: rec, wait: intervalUnion{now: time.Now}}
}

// Call implements cluster.Transport.
func (t *tracedTransport) Call(node int, req *cluster.Message) (*cluster.Message, error) {
	if !t.rec.armed.Load() {
		return t.inner.Call(node, req)
	}
	start := t.wait.enter()
	resp, err := t.inner.Call(node, req)
	end := t.wait.exit()
	t.calls.Add(1)
	t.rec.record("call "+req.Op, node+1, t.rec.soleOp(), start, end)
	return resp, err
}

// NumNodes implements cluster.Transport.
func (t *tracedTransport) NumNodes() int { return t.inner.NumNodes() }

// Close implements cluster.Transport.
func (t *tracedTransport) Close() error { return t.inner.Close() }

// TransportStats implements cluster.StatsSource by forwarding.
func (t *tracedTransport) TransportStats() cluster.TransportStats {
	if s, ok := t.inner.(cluster.StatsSource); ok {
		return s.TransportStats()
	}
	return cluster.TransportStats{}
}

// destTimes accumulates the time loader destinations spent shipping and
// flushing.
type destTimes struct {
	ship, flush atomic.Int64
}

// tracedDest wraps a loader destination, timing ShipChunks and Flush while
// the recorder is armed. It forwards AvgRTT, keeping batch sizing intact.
type tracedDest struct {
	inner loader.ChunkDest
	rec   *recorder
	op    int64 // operation span the shipments belong to
	times *destTimes
}

// ShipChunks implements loader.ChunkDest.
func (d tracedDest) ShipChunks(site int, payloads [][]byte, cells int64) error {
	if !d.rec.armed.Load() {
		return d.inner.ShipChunks(site, payloads, cells)
	}
	start := time.Now()
	err := d.inner.ShipChunks(site, payloads, cells)
	end := time.Now()
	d.times.ship.Add(int64(end.Sub(start)))
	d.rec.record("loader ship", site+1, d.op, start, end)
	return err
}

// Flush implements loader.ChunkDest.
func (d tracedDest) Flush() error {
	if !d.rec.armed.Load() {
		return d.inner.Flush()
	}
	start := time.Now()
	err := d.inner.Flush()
	end := time.Now()
	d.times.flush.Add(int64(end.Sub(start)))
	d.rec.record("loader flush", 0, d.op, start, end)
	return err
}

// AvgRTT implements loader.RTTSource by forwarding.
func (d tracedDest) AvgRTT() time.Duration {
	if s, ok := d.inner.(loader.RTTSource); ok {
		return s.AvgRTT()
	}
	return 0
}
