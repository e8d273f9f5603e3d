// Command tcserved is the long-running anonymization service: it serves
// dataset registration, asynchronous anonymization jobs over the prepared
// engine, and ops endpoints, with the robustness contract of
// internal/serve — panic isolation, per-job deadlines, bounded-queue load
// shedding, transient-failure retry, and graceful drain on SIGTERM.
//
// See README.md in this directory for the job API and failure semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/faultinject"
	"repro/internal/store"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8344", "listen address (host:port; port 0 picks a free port)")
		queue         = flag.Int("queue", 64, "job queue bound; submissions beyond it get 429")
		jobs          = flag.Int("jobs", 2, "jobs executed concurrently")
		timeout       = flag.Duration("timeout", 2*time.Minute, "default per-job deadline")
		maxTimeout    = flag.Duration("max-timeout", 10*time.Minute, "cap on client-requested deadlines")
		grace         = flag.Duration("grace", 15*time.Second, "shutdown grace period before in-flight jobs are canceled")
		retries       = flag.Int("retries", 2, "retry budget for transient job failures")
		cacheEntries  = flag.Int("cache", 256, "result cache entries (0 disables)")
		engineWorkers = flag.Int("workers", 0, "per-engine parallel fan-out (0 = GOMAXPROCS)")
		preload       = flag.String("preload", "", "comma-separated synthetic datasets to register at boot: census-mcd, census-hcd, patients")
		dataDir       = flag.String("data-dir", "", "directory for persistent dataset storage; datasets found there are restored at boot")
		faultSpec     = flag.String("fault", os.Getenv("TCSERVED_FAULT"), "fault injection spec (testing only), e.g. panic-at=3,slow-task=50ms,transient=2")
	)
	flag.Parse()
	if err := run(*addr, serveConfig(*queue, *jobs, *timeout, *maxTimeout, *retries, *cacheEntries, *engineWorkers, *faultSpec), *preload, *dataDir, *grace); err != nil {
		log.Fatal(err)
	}
}

func serveConfig(queue, jobs int, timeout, maxTimeout time.Duration, retries, cache, workers int, faultSpec string) serve.Config {
	cfg := serve.Config{
		MaxQueue:       queue,
		JobWorkers:     jobs,
		DefaultTimeout: timeout,
		MaxTimeout:     maxTimeout,
		RetryMax:       retries,
		CacheEntries:   cache,
		EngineWorkers:  workers,
	}
	if faultSpec != "" {
		hooks, err := faultinject.Parse(faultSpec)
		if err != nil {
			log.Fatalf("tcserved: %v", err)
		}
		log.Printf("tcserved: FAULT INJECTION ARMED (%s) — testing only", faultSpec)
		cfg.Fault = hooks
	}
	return cfg
}

func run(addr string, cfg serve.Config, preload, dataDir string, grace time.Duration) error {
	if dataDir != "" {
		backend, err := store.NewFileBackend(dataDir)
		if err != nil {
			return err
		}
		defer backend.Close()
		cfg.Store = backend
	}
	srv := serve.New(cfg)

	// With -data-dir, datasets committed by an earlier run come back first
	// — same names, epoch counters and table hashes — and every later
	// registration or epoch writes through durably.
	restored := make(map[string]bool)
	if cfg.Store != nil {
		names, err := srv.RestoreDatasets()
		var strays *store.StrayFilesError
		if errors.As(err, &strays) {
			// Stray files are surfaced but never block the boot: the intact
			// datasets in names are all restored.
			log.Printf("tcserved: WARNING: %v", strays)
		} else if err != nil {
			return err
		}
		for _, name := range names {
			restored[name] = true
			log.Printf("tcserved: restored dataset %q from %s", name, dataDir)
		}
	}
	for _, kind := range strings.Split(preload, ",") {
		kind = strings.TrimSpace(kind)
		if kind == "" {
			continue
		}
		if restored[kind] {
			log.Printf("tcserved: dataset %q already restored from -data-dir; preload skipped", kind)
			continue
		}
		tbl, err := serve.SynthTable(kind, 0)
		if err != nil {
			return err
		}
		if err := srv.RegisterDataset(kind, tbl); err != nil {
			return err
		}
		log.Printf("tcserved: preloaded dataset %q (%d rows)", kind, tbl.Len())
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The actual address is printed on stdout so harnesses using port 0 can
	// discover the chosen port.
	fmt.Printf("tcserved listening on %s\n", ln.Addr())
	log.Printf("tcserved: serving on %s (queue=%d jobs=%d timeout=%v grace=%v)",
		ln.Addr(), cfg.MaxQueue, cfg.JobWorkers, cfg.DefaultTimeout, grace)

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-stop:
		log.Printf("tcserved: %v received, draining (grace %v)", sig, grace)
	case err := <-errc:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("tcserved: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("tcserved: grace period expired, in-flight jobs canceled (%v)", err)
	} else {
		log.Printf("tcserved: drained cleanly")
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
