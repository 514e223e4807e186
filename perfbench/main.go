// Command perfbench is the repository's end-to-end benchmark. One process
// hosts a two-worker grid over loopback TCP (store-backed partitions,
// in-memory buckets, one shared buffer pool), the coordinator, a session
// server whose tenant database has the grid attached, and closed-loop
// clients. Each workload runs one statement template with parameters drawn
// from the seed, and every answer is checked against references computed
// from the seeded input before set-up starts.
//
//	bash perfbench/run.sh --workload slab --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// an untraced and then a traced window on the same set-up and prints the
// per-layer metrics, read from counters the layers export and from spans
// the benchmark records around its calls into them. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// See NOTES.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many times a run sets up; setup_s is their median and
// the last set-up is the one measured.
const setupRuns = 5

// minOps keeps an untraced window open until p90 has ten samples beyond it.
const minOps = 100

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: slab, scan or ingest")
	seed := fs.Int64("seed", 1, "seed the inputs and operation parameters are drawn from")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced window")
	dataDir := fs.String("data", ".bench_build/data", "directory for generated inputs")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory for span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload slab|scan|ingest, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := bench(sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1,
		*dataDir, *traceDir, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	return 0
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(sp spec, seed int64, dur time.Duration, traced bool, dataDir, traceDir string, stdout, stderr io.Writer) error {
	in, err := makeInputs(sp, seed, filepath.Join(dataDir, fmt.Sprintf("%s-%d", sp.name, seed)))
	if err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	var g *grid
	defer func() {
		if g != nil {
			g.close()
		}
	}()
	var r *runner
	var setup []time.Duration
	for i := 0; i < setupRuns; i++ {
		if g != nil {
			err := g.close()
			g = nil
			if err != nil {
				return fmt.Errorf("tear-down: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		if g, err = startGrid(sp, in, rec); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r = &runner{sp: sp, in: in, g: g, rec: rec, log: stderr}
		if err := r.warmup(seed, sp.warmup); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0))
	}

	streams := make([]*opStream, sp.clients)
	for c := range streams {
		streams[c] = newOpStream(sp, in, seed, c)
	}
	res := result{}
	var note string
	if !traced {
		w := r.measure(streams, dur, minOps, dur+90*time.Second)
		res.Attempted, res.Failed = w.attempted, w.failed
		if res.Metrics, note, err = endToEnd(r, w, setup); err != nil {
			return err
		}
	} else {
		half := dur / 2
		plain := r.measure(streams, half, 1, half+60*time.Second)
		rec.armed.Store(true)
		w := r.measure(streams, half, 1, half+60*time.Second)
		rec.armed.Store(false)
		res.Attempted = plain.attempted + w.attempted
		res.Failed = plain.failed + w.failed
		res.Metrics = perLayer(r, w, plain.okPerSecond())
		path := filepath.Join(traceDir, fmt.Sprintf("%s-%d.jsonl", sp.name, seed))
		if err := rec.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		note = fmt.Sprintf("traced window: %d operations; untraced window: %d; spans in %s",
			w.attempted, plain.attempted, path)
	}
	res.Correct = res.Failed == 0
	err = g.close()
	g = nil
	if err != nil {
		return fmt.Errorf("tear-down: %w", err)
	}

	fmt.Fprintf(stdout, "perfbench %s seed %d: %d clients, closed loop; %d operations, %d failed\n",
		sp.name, seed, sp.clients, res.Attempted, res.Failed)
	fmt.Fprintf(stdout, "  %s\n", note)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(stdout, "  %-32s %14.4f %s\n", k, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}
