package main

import (
	"bytes"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"scidb/internal/cluster"
	"scidb/internal/loader"
	"scidb/internal/obs"
)

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * time.Millisecond // unsorted on purpose
	}
	return out
}

func TestP90NeedsTenSamplesBeyondIt(t *testing.T) {
	if _, _, _, err := latencies(durations(99)); err == nil {
		t.Fatal("99 samples: p90 reported with only 9 beyond it")
	}
	p50, p90, note, err := latencies(durations(100))
	if err != nil {
		t.Fatalf("100 samples: %v", err)
	}
	if p50 != 50*time.Millisecond || p90 != 90*time.Millisecond {
		t.Fatalf("p50 %v p90 %v, want 50ms 90ms", p50, p90)
	}
	if !strings.Contains(note, "n=100") || !strings.Contains(note, "10 beyond p90") {
		t.Fatalf("note %q does not state the sample count", note)
	}
}

// small shrinks a workload so tests stay quick.
func small(name string) spec {
	sp := specs[name]
	sp.side, sp.passes = 40, 2
	return sp
}

func firstOps(sp spec, in *inputs, seed int64, client, n int) []op {
	s := newOpStream(sp, in, seed, client)
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestSameSeedSameOperationsAndAnswers(t *testing.T) {
	for _, name := range []string{"slab", "scan", "ingest"} {
		sp := small(name)
		a, err := makeInputs(sp, 7, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(sp, 7, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c, err := makeInputs(sp, 8, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for client := 0; client < sp.clients; client++ {
			opsA := firstOps(sp, a, 7, client, 40)
			if opsB := firstOps(sp, b, 7, client, 40); !equalOps(opsA, opsB) {
				t.Fatalf("%s client %d: same seed, different operations", name, client)
			}
			if opsC := firstOps(sp, c, 8, client, 40); equalOps(opsA, opsC) {
				t.Fatalf("%s client %d: seeds 7 and 8 drew the same operations", name, client)
			}
		}
		if err := sameArray(name, b.src, a.src); err != nil {
			t.Fatalf("generated inputs differ: %v", err)
		}
		for i := range a.files {
			fa, _ := os.ReadFile(a.files[i])
			fb, _ := os.ReadFile(b.files[i])
			if !bytes.Equal(fa, fb) || a.fileCount[i] != b.fileCount[i] || a.fileDNSum[i] != b.fileDNSum[i] {
				t.Fatalf("%s: pass file %d or its count/checksum differs", name, i+1)
			}
		}
		if len(a.thresholds) != len(b.thresholds) {
			t.Fatalf("%s: %d vs %d thresholds", name, len(a.thresholds), len(b.thresholds))
		}
		for i := range a.thresholds {
			if a.thresholds[i] != b.thresholds[i] {
				t.Fatalf("%s: threshold %d differs", name, i)
			}
			if err := sameArray(name, b.scanRef[i], a.scanRef[i]); err != nil {
				t.Fatalf("scan reference %d differs: %v", i, err)
			}
		}
	}
}

func equalOps(a, b []op) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestScanDealsEveryThresholdEquallyOften(t *testing.T) {
	sp := small("scan")
	in, err := makeInputs(sp, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, o := range firstOps(sp, in, 3, 0, 5*scanThresh) {
		seen[o.threshold]++
	}
	for i := 0; i < scanThresh; i++ {
		if seen[i] != 5 {
			t.Fatalf("threshold %d dealt %d times in 5 rounds, want 5", i, seen[i])
		}
	}
}

func TestIntervalUnionFixedClock(t *testing.T) {
	var now time.Time
	u := intervalUnion{now: func() time.Time { return now }}
	at := func(ms int) { now = time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	at(0)
	u.enter() // [0, 10]
	at(5)
	u.enter() // [5, 15]
	at(10)
	u.exit()
	at(15)
	u.exit()
	at(20)
	u.enter() // [20, 25]
	at(25)
	u.exit()
	if got := u.Total(); got != 20*time.Millisecond {
		t.Fatalf("union %v, want 20ms", got)
	}
}

func TestIntervalUnionConcurrentCalls(t *testing.T) {
	u := intervalUnion{now: time.Now}
	type iv struct{ lo, hi time.Time }
	var mu sync.Mutex
	var ivs []iv
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				lo := u.enter()
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				hi := u.exit()
				mu.Lock()
				ivs = append(ivs, iv{lo, hi})
				mu.Unlock()
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var want time.Duration
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if !v.lo.After(cur.hi) {
			if v.hi.After(cur.hi) {
				cur.hi = v.hi
			}
			continue
		}
		want += cur.hi.Sub(cur.lo)
		cur = v
	}
	want += cur.hi.Sub(cur.lo)
	if got := u.Total(); got != want {
		t.Fatalf("online union %v, offline union of the same intervals %v", got, want)
	}
}

// slowLink is an in-process grid that reports a 5 ms mean round trip, so
// the loader sizes batches at 96 chunks instead of the fast-link 16.
type slowLink struct{ *cluster.Local }

func (slowLink) TransportStats() cluster.TransportStats {
	return cluster.TransportStats{Calls: 10, RoundTripNanos: int64(50 * time.Millisecond)}
}

// hiddenStats forwards calls but not TransportStats: the wrapper mistake
// the forwarding test must catch.
type hiddenStats struct{ cluster.Transport }

// batchesShipped loads one pass file over link and returns how many chunk
// batches the loader shipped.
func batchesShipped(t *testing.T, in *inputs, link cluster.Transport, rec *recorder) int64 {
	t.Helper()
	t.Cleanup(func() { link.Close() })
	co := cluster.NewCoordinator(link, 0)
	s := rawSchema("fwd", 1, 64)
	for i := 1; i < len(s.Dims); i++ {
		s.Dims[i].ChunkLen = 4 // 256 chunks per pass: enough to batch
	}
	if err := co.Create("fwd", s, scheme(64)); err != nil {
		t.Fatal(err)
	}
	var dest loader.ChunkDest = loader.ClusterDest{Co: co, Array: "fwd"}
	if rec != nil {
		dest = tracedDest{inner: dest, rec: rec, times: &destTimes{}}
	}
	batches := obs.Default().Counter("scidb_load_batches_shipped_total", "")
	before := batches.Value()
	n, err := loadFile(in.files[0], s, dest)
	if err != nil {
		t.Fatal(err)
	}
	if n != 64*64 {
		t.Fatalf("loaded %d cells, want %d", n, 64*64)
	}
	return batches.Value() - before
}

func TestTracedTransportKeepsBatchSizing(t *testing.T) {
	sp := specs["ingest"]
	sp.side, sp.passes = 64, 1
	in, err := makeInputs(sp, 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	grid := func() *cluster.Local {
		return cluster.NewLocalWithOptions(2, cluster.LocalOptions{Persist: true, Stride: []int64{1, 4, 4}})
	}
	untraced := batchesShipped(t, in, slowLink{grid()}, nil)

	rec := newRecorder()
	rec.armed.Store(true)
	traced := newTracedTransport(slowLink{grid()}, rec)
	tracedBatches := batchesShipped(t, in, traced, rec)
	if traced.calls.Load() == 0 {
		t.Fatal("traced transport recorded no calls")
	}
	if tracedBatches != untraced {
		t.Fatalf("traced load shipped %d batches, untraced %d", tracedBatches, untraced)
	}
	if hidden := batchesShipped(t, in, hiddenStats{slowLink{grid()}}, nil); hidden == untraced {
		t.Fatalf("hiding TransportStats left batch count at %d: the check cannot tell", hidden)
	}
}

func TestFailedSetUpTearsDown(t *testing.T) {
	sp := small("slab")
	in, err := makeInputs(sp, 9, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in.files = append([]string(nil), in.files...)
	in.files[1] += ".missing"
	g, err := startGrid(sp, in, nil)
	if err == nil || g != nil {
		t.Fatalf("start with a missing pass file: grid %v, err %v", g, err)
	}
}
