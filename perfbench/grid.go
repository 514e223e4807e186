package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"scidb/internal/array"
	"scidb/internal/bufcache"
	"scidb/internal/cluster"
	"scidb/internal/core"
	"scidb/internal/insitu"
	"scidb/internal/loader"
	"scidb/internal/obs"
	"scidb/internal/session"
	"scidb/internal/storage"
)

// grid is everything one run hosts in-process: two store-backed workers
// (in-memory buckets, one shared buffer pool) behind loopback TCP, the
// coordinator, and a session server whose tenant database has the grid
// attached.
type grid struct {
	pool    *bufcache.Pool
	workers []*cluster.Worker
	servers []*cluster.Server
	tcp     *cluster.TCP
	traced  *tracedTransport // nil in an untraced run
	co      *cluster.Coordinator
	sessReg *obs.Registry
	sess    *session.Server
	sessLn  net.Listener
	clients []*session.Client
	serving sync.WaitGroup
	cells   int64 // cells loaded at set-up
}

// startGrid starts the grid, loads the workload's pass files (ingest loads
// nothing up front) and opens the session clients. rec, when non-nil,
// interposes the tracing transport wrapper (disarmed until the traced
// window).
func startGrid(sp spec, in *inputs, rec *recorder) (*grid, error) {
	g := &grid{pool: bufcache.New(int64(sp.poolShare * float64(in.decoded)))}
	if err := g.start(sp, in, rec); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

func (g *grid) start(sp spec, in *inputs, rec *recorder) (err error) {
	var addrs []string
	for i := 0; i < 2; i++ {
		w := cluster.NewWorkerWithOptions(i, cluster.WorkerOptions{
			Persist: true,
			Stride:  []int64{1, chunkXY, chunkXY},
			Cache:   g.pool,
		})
		g.workers = append(g.workers, w)
		srv, err := cluster.NewServer(w, cluster.ServeOptions{})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		g.servers = append(g.servers, srv)
		addrs = append(addrs, ln.Addr().String())
		g.serving.Add(1)
		go func() {
			defer g.serving.Done()
			_ = srv.Serve(ln)
		}()
	}
	if g.tcp, err = cluster.DialTCP(addrs); err != nil {
		return err
	}
	var link cluster.Transport = g.tcp
	if rec != nil {
		g.traced = newTracedTransport(g.tcp, rec)
		link = g.traced
	}
	g.co = cluster.NewCoordinator(link, 0)

	if sp.name != "ingest" {
		s := rawSchema("raw", sp.passes, sp.side)
		if err := g.co.Create("raw", s, scheme(sp.side)); err != nil {
			return err
		}
		for _, path := range in.files {
			n, err := loadFile(path, s, loader.ClusterDest{Co: g.co, Array: "raw"})
			if err != nil {
				return err
			}
			g.cells += n
		}
		db := core.Open()
		db.AttachCluster(g.co)
		g.sessReg = obs.NewRegistry()
		if g.sessLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return err
		}
		g.sess = session.NewServer(session.ServerOptions{
			Registry: g.sessReg,
			Tenant:   func(string) (*core.Database, error) { return db, nil },
		})
		g.serving.Add(1)
		go func() {
			defer g.serving.Done()
			_ = g.sess.Serve(g.sessLn)
		}()
		for i := 0; i < sp.clients; i++ {
			c, err := session.Dial(g.sessLn.Addr().String(), session.ClientOptions{
				Name: fmt.Sprintf("%s-%d", sp.name, i), Priority: session.Interactive,
			})
			if err != nil {
				return err
			}
			g.clients = append(g.clients, c)
		}
	}
	return nil
}

// loadFile bulk-loads one CSV pass file the way scidb-load does.
func loadFile(path string, s *array.Schema, dest loader.ChunkDest) (int64, error) {
	ad, err := insitu.ByName("csv")
	if err != nil {
		return 0, err
	}
	ds, err := ad.Open(path)
	if err != nil {
		return 0, err
	}
	defer ds.Close()
	st, err := loader.LoadParallel(ds, array.WholeBox(s), s, scheme(s.Dims[1].High), dest, loader.Options{})
	if err != nil {
		return 0, fmt.Errorf("load %s: %w", path, err)
	}
	return st.Records, nil
}

// storeTotals sums the storage counters of every live store on both nodes.
func (g *grid) storeTotals() storage.Stats {
	var s storage.Stats
	for _, w := range g.workers {
		s = s.Add(w.StoreStats())
	}
	return s
}

// close stops clients, servers and workers and waits for every serving
// goroutine to return.
func (g *grid) close() error {
	var errs []error
	for _, c := range g.clients {
		_ = c.Close()
	}
	if g.sess != nil {
		_ = g.sessLn.Close()
		g.sess.Shutdown(5 * time.Second)
	}
	if g.tcp != nil {
		_ = g.tcp.Close()
	}
	for _, s := range g.servers {
		s.Shutdown()
	}
	g.serving.Wait()
	for _, w := range g.workers {
		if err := w.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
