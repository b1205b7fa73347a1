package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distperm/internal/metric"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
)

// serveConfig says what one server process serves.
type serveConfig struct {
	// points is a writePoints file to build an index over; frozen is a
	// frozen container to open with mmap instead.
	points, frozen string
	// walDir and rebuildThreshold make the server mutable.
	walDir           string
	rebuildThreshold int
}

// servingConfig is distpermd's default serving configuration.
func servingConfig() dpserver.Config {
	return dpserver.Config{BatchMax: 64, BatchWait: 2 * time.Millisecond, CacheSize: 4096}
}

// serving is a built server and what releases it after the serve drain.
type serving struct {
	srv     *dpserver.Server
	cleanup func()
}

// buildServing assembles the server from the same public constructors and
// defaults as distpermd: workers = NumCPU, cache 4096, batch-max 64,
// batch-wait 2 ms, and for the mutable store a write-ahead log under
// fsync=interval with distpermd's checkpointer. With a tracer, the engine
// is wrapped in the tracing decorators and the server built by
// dpserver.New, which the untraced constructors also end in.
func buildServing(cfg serveConfig, tr *tracer) (*serving, error) {
	sv := &serving{cleanup: func() {}}
	var (
		db  *distperm.DB
		idx distperm.Index
	)
	if cfg.frozen != "" {
		store, err := distperm.Load(cfg.frozen, distperm.LoadOptions{Mmap: true})
		if err != nil {
			return nil, err
		}
		sv.cleanup = func() { store.Close() }
		db, idx = store.DB, store.Index
	} else {
		pts, err := readPoints(cfg.points)
		if err != nil {
			return nil, err
		}
		if db, err = distperm.NewDB(metric.L2{}, pts); err != nil {
			return nil, err
		}
		if idx, err = buildIndex(db); err != nil {
			return nil, err
		}
	}
	if cfg.walDir == "" {
		if tr == nil {
			srv, err := dpserver.NewFromIndex(db, idx, 0, servingConfig())
			if err != nil {
				sv.cleanup()
				return nil, err
			}
			sv.srv = srv
			return sv, nil
		}
		e, err := distperm.NewEngine(db, idx, 0)
		if err != nil {
			sv.cleanup()
			return nil, err
		}
		info := dpserver.IndexInfo{Kind: idx.Name(), Bits: idx.IndexBits(), N: db.N(),
			Metric: db.Metric.Name(), Shards: 1, Workers: e.Workers()}
		tr.attach(e, nil)
		srv, err := dpserver.New(&tracedEngine{engineSurface: e, t: tr}, info, servingConfig())
		if err != nil {
			e.Close()
			sv.cleanup()
			return nil, err
		}
		sv.srv = srv
		return sv, nil
	}

	wal, err := distperm.OpenWAL(cfg.walDir, distperm.WALOptions{Sync: distperm.SyncInterval})
	if err != nil {
		return nil, err
	}
	me, err := distperm.WrapMutable(db, idx, distperm.MutableConfig{
		Spec:             distperm.Spec{Index: "distperm", K: sites, Seed: siteSeed + 1},
		RebuildThreshold: cfg.rebuildThreshold,
	})
	if err == nil {
		err = me.AttachWAL(wal)
		if err != nil {
			me.Close()
		}
	}
	if err != nil {
		wal.Close()
		return nil, err
	}
	var srv *dpserver.Server
	if tr == nil {
		srv, err = dpserver.NewFromMutable(me, servingConfig())
	} else {
		info := dpserver.IndexInfo{Kind: "mutable", Base: me.BaseKind(), Bits: me.IndexBits(),
			N: me.LiveN(), Metric: me.Metric().Name(), Shards: me.Shards(), Workers: me.Workers()}
		tr.attach(me, me)
		srv, err = dpserver.New(&tracedMutable{tracedEngine: tracedEngine{engineSurface: me, t: tr}, me: me},
			info, servingConfig())
	}
	if err != nil {
		me.Close()
		wal.Close()
		return nil, err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		runCheckpoints(me, wal, stop)
	}()
	sv.srv = srv
	sv.cleanup = func() {
		close(stop)
		<-done
		wal.Close()
	}
	return sv, nil
}

// runCheckpoints is distpermd's checkpointer at its default settings: once
// a second, after any background rebuild, write a checkpoint that folds
// the log behind it.
func runCheckpoints(me *distperm.MutableEngine, wal *distperm.WAL, stop chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	var lastRebuilds int64
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		ms, ws := me.MutationStats(), me.WALStats()
		if ms.Rebuilds <= lastRebuilds {
			continue
		}
		lastRebuilds = ms.Rebuilds
		snap, seq, err := me.CheckpointSnapshot()
		if err == nil && seq > ws.CheckpointSeq {
			err = wal.WriteCheckpoint(snap, seq)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench serve: wal checkpoint: %v\n", err)
		}
	}
}

// serveMain is the server process: bind first, print the address, build
// the store behind a readiness gate, serve until SIGTERM, then drain.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var cfg serveConfig
	fs.StringVar(&cfg.points, "points", "", "points file to build the index over")
	fs.StringVar(&cfg.frozen, "frozen", "", "frozen container to open with mmap")
	fs.StringVar(&cfg.walDir, "wal", "", "write-ahead log directory; makes the store mutable")
	fs.IntVar(&cfg.rebuildThreshold, "rebuild-threshold", 0, "pending writes that trigger a background rebuild")
	traceOut := fs.String("trace-out", "", "trace the server and write its spans here at shutdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("listening %s\n", ln.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	gate := dpserver.NewGate()
	var (
		tr *tracer
		hs *http.Server
	)
	serveErr := make(chan error, 1)
	if *traceOut == "" {
		go func() { serveErr <- gate.Serve(ctx, ln) }()
	} else {
		tr = newTracer()
		hs = &http.Server{Handler: tr.handler(gate)}
		go func() { serveErr <- hs.Serve(ln) }()
	}
	sv, err := buildServing(cfg, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	gate.SetReady(sv.srv)
	if hs == nil {
		err = <-serveErr // gate.Serve drains and closes the server
	} else {
		select {
		case err = <-serveErr:
		case <-ctx.Done():
			sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			err = hs.Shutdown(sctx) // in-flight handlers finish first
			cancel()
		}
		sv.srv.Close()
	}
	sv.cleanup()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if tr != nil {
		if err := tr.finish(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}
