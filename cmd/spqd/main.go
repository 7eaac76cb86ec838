// Command spqd is the long-running sPaQL query daemon: it loads one or more
// of the built-in paper workloads (or a CSV table) into an in-memory
// database and serves the concurrent execution engine's HTTP/JSON API —
// the legacy synchronous POST /query plus the versioned async API under
// /v1/queries (see DESIGN.md "API v1" and the spq/client Go client).
//
//	spqd -addr :8723 -workload portfolio,galaxy -n 300
//	curl -s localhost:8723/healthz
//	curl -s localhost:8723/stats
//	curl -s -X POST localhost:8723/v1/queries -d '{
//	  "query": "SELECT PACKAGE(*) FROM trades_2day_all SUCH THAT SUM(price) <= 1000 AND SUM(gain) >= -10 WITH PROBABILITY >= 0.9 MAXIMIZE EXPECTED SUM(gain)",
//	  "options": {"validation_m": 2000, "max_m": 60, "fixed_z": 1}
//	}'
//	curl -s 'localhost:8723/v1/queries/q-1?wait_ms=5000'
//
// Daemons compose into fleets: -workers turns this instance into a
// coordinator that dispatches sketch-shard sub-solves to worker daemons
// (method "remote", or -solver remote to route every sketch sub-problem
// there), and -peers write-through-replicates the result cache between
// load-balanced instances. Fleet members must load identical data
// (identical -workload/-n/-seed/-means), which makes every node's answers
// bit-identical by construction.
//
// OPERATIONS.md is the canonical reference for every flag, the /stats
// field glossary, fleet topologies, and tuning; this comment only sketches
// the surface.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only on -pprof-addr
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"spq"
	"spq/internal/core"
	"spq/internal/engine"
	"spq/internal/obs"
	"spq/internal/relation"
	"spq/internal/remote"
	"spq/internal/resultcache"
	"spq/internal/workload"
)

// config collects every flag; OPERATIONS.md documents them.
type config struct {
	addr      string
	workloads string
	csvPath   string
	n         int
	seed      uint64
	meansM    int

	maxInFlight int
	maxQueue    int
	cacheSize   int
	resultCache int
	timeout     time.Duration
	parallelism int
	cacheBlocks int
	maxJobs     int
	jobHistory  int

	workers        string
	solver         string
	remoteInflight int
	remoteFallback bool
	peers          string

	logFormat string
	slowQuery time.Duration
	pprofAddr string

	readOnly bool
	deltaLog int

	tenants string
	classes string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8723", "listen address")
	flag.StringVar(&cfg.workloads, "workload", "portfolio", "comma-separated built-in workloads to load: galaxy | portfolio | tpch")
	flag.StringVar(&cfg.csvPath, "csv", "", "CSV file to load as an additional (deterministic) table")
	flag.IntVar(&cfg.n, "n", 300, "workload size (tuples; stocks for portfolio)")
	flag.Uint64Var(&cfg.seed, "seed", 42, "workload data seed (fleet members must match)")
	flag.IntVar(&cfg.meansM, "means", 2000, "scenarios for attribute-mean precomputation")
	flag.IntVar(&cfg.maxInFlight, "max-inflight", 0, "max concurrent solves (0 = one per CPU)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 0, "max queries waiting for a solve slot (0 = 4x max-inflight)")
	flag.IntVar(&cfg.cacheSize, "cache", 128, "plan cache capacity in entries (negative disables)")
	flag.IntVar(&cfg.resultCache, "result-cache", 256, "result cache capacity in entries (negative disables)")
	flag.DurationVar(&cfg.timeout, "timeout", 60*time.Second, "default per-query timeout")
	flag.IntVar(&cfg.parallelism, "parallelism", 0, "per-query worker count (0 = one per CPU)")
	flag.IntVar(&cfg.cacheBlocks, "colcache-blocks", 0, "out-of-core column block-cache capacity in 2048-value blocks (0 = 256 blocks = 4 MiB)")
	flag.IntVar(&cfg.maxJobs, "max-jobs", 0, "max active async jobs (0 = max-inflight + max-queue)")
	flag.IntVar(&cfg.jobHistory, "job-history", 0, "finished jobs kept pollable (0 = 64, negative disables)")
	flag.StringVar(&cfg.workers, "workers", "", "comma-separated worker spqd base URLs; enables the \"remote\" solver (coordinator mode)")
	flag.StringVar(&cfg.solver, "solver", "", "solver for sketch sub-problems: empty = local summarysearch, \"remote\" = dispatch shards to -workers")
	flag.IntVar(&cfg.remoteInflight, "remote-inflight", 0, "max concurrent remote sub-solve dispatches (0 = 4 per worker)")
	flag.BoolVar(&cfg.remoteFallback, "remote-fallback", true, "re-solve locally when a worker fails (false surfaces the worker error)")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated peer spqd base URLs to replicate the result cache with")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log format for structured events: \"text\" or \"json\" (one object per line)")
	flag.DurationVar(&cfg.slowQuery, "slow-query", 0, "log queries slower than this threshold with their full span tree (0 disables)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate address (empty disables; bind it privately)")
	flag.BoolVar(&cfg.readOnly, "read-only", false, "reject table mutations (POST /v1/tables/{name}/deltas answers 405); run workers read-only so mutations funnel through the coordinator")
	flag.IntVar(&cfg.deltaLog, "delta-log", 0, "change sets retained per relation for delta-scoped cache invalidation (0 = 64; older versions rebuild wholesale)")
	flag.StringVar(&cfg.tenants, "tenants", "", "weighted-fair admission lanes: \"name:weight[:max_inflight[:max_queue]],...\" inline, or @file.json with a JSON array of tenant objects (empty = single default lane)")
	flag.StringVar(&cfg.classes, "classes", "", "query-class budgets: \"name:time_limit_ms[:solver_nodes],...\" — a binding class budget degrades to the best-so-far package instead of failing")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "spqd:", err)
		os.Exit(1)
	}
}

// loadTenants parses the -tenants flag: "@path" loads a JSON array of
// engine.TenantConfig objects; anything else parses as the inline
// name:weight[:max_inflight[:max_queue]] list.
func loadTenants(s string) ([]engine.TenantConfig, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if !strings.HasPrefix(s, "@") {
		return engine.ParseTenants(s)
	}
	data, err := os.ReadFile(strings.TrimPrefix(s, "@"))
	if err != nil {
		return nil, err
	}
	var out []engine.TenantConfig
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", strings.TrimPrefix(s, "@"), err)
	}
	seen := make(map[string]bool)
	for _, t := range out {
		if t.Name == "" {
			return nil, fmt.Errorf("%s: tenant with empty name", strings.TrimPrefix(s, "@"))
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("%s: duplicate tenant %q", strings.TrimPrefix(s, "@"), t.Name)
		}
		seen[t.Name] = true
		if t.Weight < 1 {
			return nil, fmt.Errorf("%s: tenant %q: weight must be >= 1", strings.TrimPrefix(s, "@"), t.Name)
		}
		if t.MaxInFlight < 0 || t.MaxQueue < 0 {
			return nil, fmt.Errorf("%s: tenant %q: caps must be >= 0", strings.TrimPrefix(s, "@"), t.Name)
		}
	}
	return out, nil
}

// splitURLs parses a comma-separated URL list flag.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// selfWorker best-effort-detects a worker URL that plainly points back at
// this daemon (a loopback/unspecified host with our own listen port).
// Dispatching sub-solves to yourself deadlocks admission — parent queries
// hold solve slots while their shard jobs wait for the same slots — so the
// obvious misconfiguration is refused at startup. Cross-host cycles cannot
// be detected here; OPERATIONS.md documents that topologies must stay one
// level deep.
func selfWorker(workerURL, listenAddr string) bool {
	u, err := url.Parse(workerURL)
	if err != nil {
		return false
	}
	_, ownPort, err := net.SplitHostPort(listenAddr)
	if err != nil {
		return false
	}
	wport := u.Port()
	if wport == "" {
		if u.Scheme == "https" {
			wport = "443"
		} else {
			wport = "80"
		}
	}
	if wport != ownPort {
		return false
	}
	whost := u.Hostname()
	ownHost, _, _ := net.SplitHostPort(listenAddr)
	if whost == "localhost" || whost == "" || whost == ownHost {
		return true
	}
	ip := net.ParseIP(whost)
	return ip != nil && (ip.IsLoopback() || ip.IsUnspecified())
}

func run(cfg config) error {
	db := spq.NewDB()
	db.MeansM = cfg.meansM

	var tables []string
	for _, wname := range strings.Split(cfg.workloads, ",") {
		wname = strings.TrimSpace(wname)
		if wname == "" {
			continue
		}
		wcfg := workload.Config{N: cfg.n, Seed: cfg.seed, MeansM: cfg.meansM}
		var inst *workload.Instance
		switch wname {
		case "galaxy":
			inst = workload.Galaxy(wcfg)
		case "portfolio":
			inst = workload.Portfolio(wcfg)
		case "tpch":
			inst = workload.TPCH(wcfg)
		default:
			return fmt.Errorf("unknown workload %q (want galaxy, portfolio, or tpch)", wname)
		}
		for name, rel := range inst.Tables {
			if err := db.Register(rel); err != nil {
				return err
			}
			tables = append(tables, fmt.Sprintf("%s (%d tuples, %s)", name, rel.N(), wname))
		}
	}
	if cfg.csvPath != "" {
		f, err := os.Open(cfg.csvPath)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(cfg.csvPath), filepath.Ext(cfg.csvPath))
		rel, err := spq.ReadCSV(name, f)
		f.Close()
		if err != nil {
			return err
		}
		if err := db.Register(rel); err != nil {
			return err
		}
		tables = append(tables, fmt.Sprintf("%s (%d tuples, csv)", name, rel.N()))
	}
	if len(tables) == 0 {
		return errors.New("no tables loaded; pass -workload and/or -csv")
	}
	sort.Strings(tables)

	logger, err := obs.NewLogger(os.Stderr, cfg.logFormat)
	if err != nil {
		return fmt.Errorf("-log-format: %w", err)
	}

	if cfg.cacheBlocks < 0 {
		return errors.New("-colcache-blocks must be >= 0")
	}
	if cfg.cacheBlocks > 0 {
		relation.ConfigureBlockCache(2048, cfg.cacheBlocks)
	}
	if cfg.deltaLog < 0 {
		return errors.New("-delta-log must be >= 0")
	}
	if cfg.deltaLog > 0 {
		relation.SetDeltaLogCap(cfg.deltaLog)
	}

	tenants, err := loadTenants(cfg.tenants)
	if err != nil {
		return fmt.Errorf("-tenants: %w", err)
	}
	classes, err := engine.ParseClasses(cfg.classes)
	if err != nil {
		return fmt.Errorf("-classes: %w", err)
	}

	eopts := &engine.Options{
		MaxInFlight:     cfg.maxInFlight,
		MaxQueue:        cfg.maxQueue,
		PlanCacheSize:   cfg.cacheSize,
		ResultCacheSize: cfg.resultCache,
		DefaultTimeout:  cfg.timeout,
		Parallelism:     cfg.parallelism,
		MaxJobs:         cfg.maxJobs,
		JobHistory:      cfg.jobHistory,
		ReadOnly:        cfg.readOnly,
		Logger:          logger,
		SlowQuery:       cfg.slowQuery,
		Tenants:         tenants,
		Classes:         classes,
	}
	if len(tenants) > 0 {
		parts := make([]string, len(tenants))
		for i, t := range tenants {
			parts[i] = fmt.Sprintf("%s:w%d", t.Name, t.Weight)
		}
		log.Printf("spqd: weighted-fair admission, %d tenant lanes: %s", len(tenants), strings.Join(parts, ", "))
	}

	// Coordinator mode: build the remote solver over the worker pool and
	// register it, so method "remote" resolves and -solver remote can route
	// sketch sub-problems through it.
	if workers := splitURLs(cfg.workers); len(workers) > 0 {
		for _, w := range workers {
			if selfWorker(w, cfg.addr) {
				return fmt.Errorf("-workers %s points at this daemon's own address %s (self-dispatch deadlocks admission; see OPERATIONS.md)", w, cfg.addr)
			}
		}
		rs, err := remote.New(remote.Options{
			Workers:     workers,
			MaxInFlight: cfg.remoteInflight,
			NoFallback:  !cfg.remoteFallback,
			Logf:        log.Printf,
		})
		if err != nil {
			return err
		}
		if err := core.RegisterSolver(rs); err != nil {
			return err
		}
		eopts.RemoteStats = rs.Stats
		log.Printf("spqd: coordinator mode, %d workers: %s", len(workers), strings.Join(workers, ", "))
	} else if cfg.solver == "remote" {
		return errors.New("-solver remote requires -workers")
	}
	if cfg.solver != "" {
		s, err := core.SolverByName(cfg.solver)
		if err != nil {
			return fmt.Errorf("-solver: %w", err)
		}
		eopts.SketchSolver = s
	}

	// Fleet mode: replicate the result cache with the listed peers. The
	// replicating store also mounts the /v1/cache peer endpoint, so list
	// peers symmetrically on every node.
	var repl *resultcache.Replicating
	if peers := splitURLs(cfg.peers); len(peers) > 0 && cfg.resultCache >= 0 {
		size := cfg.resultCache
		if size == 0 {
			size = 256
		}
		repl = resultcache.NewReplicating(resultcache.NewMemory(size), peers, nil)
		defer repl.Close()
		eopts.ResultCache = repl
		log.Printf("spqd: replicating result cache with %d peers: %s", len(peers), strings.Join(peers, ", "))
	}

	eng := spq.NewEngine(db, eopts)

	// pprof stays off the query listener: profiling endpoints reveal memory
	// contents and must never face query traffic. The blank net/http/pprof
	// import registered its handlers on the DefaultServeMux, which only this
	// (optional, separately bound) server exposes.
	if cfg.pprofAddr != "" {
		go func() {
			log.Printf("spqd: pprof listening on %s", cfg.pprofAddr)
			if err := http.ListenAndServe(cfg.pprofAddr, nil); err != nil {
				log.Printf("spqd: pprof server: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:    cfg.addr,
		Handler: logRequests(eng.Handler(), logger),
		// Bound connection-level reads so trickling clients cannot pin
		// goroutines forever. WriteTimeout stays 0: responses legitimately
		// take up to the per-query -timeout, which the engine enforces.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	done := make(chan error, 1)
	go func() {
		log.Printf("spqd: listening on %s", cfg.addr)
		for _, t := range tables {
			log.Printf("spqd: table %s", t)
		}
		err := srv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		done <- err
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		return err
	case s := <-sig:
		log.Printf("spqd: %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return <-done
	}
}

// statusWriter records the status code and response bytes the handler
// actually wrote, so the access log can report them.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequests is the access log: method, path, status, bytes, latency —
// one line per request, structured when -log-format json.
func logRequests(next http.Handler, logger *obs.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if logger != nil && logger.JSON() {
			logger.Event("http_request", map[string]any{
				"method":      r.Method,
				"path":        r.URL.Path,
				"status":      sw.status,
				"bytes":       sw.bytes,
				"duration_ms": time.Since(start).Milliseconds(),
			})
			return
		}
		log.Printf("spqd: %s %s %d %dB (%s)", r.Method, r.URL.Path, sw.status, sw.bytes, time.Since(start).Round(time.Millisecond))
	})
}
