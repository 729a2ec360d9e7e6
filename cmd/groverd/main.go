// groverd is the kernel compilation and auto-tuning daemon: an HTTP/JSON
// service that compiles OpenCL C kernels, runs the Grover pass, and
// auto-tunes kernels on the simulated platforms — with a
// content-addressed artifact cache (one compile serves N identical
// requests) and a bounded worker pool (heavy traffic queues instead of
// thrashing the simulator).
//
// Usage:
//
//	groverd [-addr :8372] [-cache 256] [-workers 0] [-max-queue 0]
//	        [-trace-log path] [-trace-cap 256]
//	        [-log-format text|json] [-log-level info] [-pprof addr]
//
// Endpoints: POST /v1/compile, /v1/transform, /v1/autotune, /v1/lint;
// GET /v1/devices, /v1/stats, /v1/traces, /metrics, /healthz. See the
// README "Serving", "Observability" and "Load & tracing" sections for a
// curl walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"grover/internal/service"
	"grover/opencl"
)

// version labels the groverd_build_info metric; release builds can
// override it with -ldflags "-X main.version=...".
var version = "dev"

func main() {
	addr := flag.String("addr", ":8372", "listen address")
	cacheCap := flag.Int("cache", 0, "artifact cache capacity in entries (0 = default 256)")
	workers := flag.Int("workers", 0, "max concurrent compile/tune jobs (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "max jobs waiting for a worker slot before shedding with 503 (0 = unbounded)")
	traceLog := flag.String("trace-log", "", "append every finished request trace to this JSONL file (empty = disabled)")
	traceCap := flag.Int("trace-cap", 0, "in-memory trace ring capacity served by /v1/traces (0 = default 256)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "groverd:", err)
		os.Exit(2)
	}
	srv := service.New(service.Config{
		CacheCapacity: *cacheCap,
		Workers:       *workers,
		Logger:        logger,
		MaxQueue:      *maxQueue,
		TraceCapacity: *traceCap,
		Version:       version,
	})

	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("cannot open trace log", "path", *traceLog, "err", err)
			os.Exit(2)
		}
		defer f.Close()
		srv.Traces().SetSink(f)
		logger.Info("trace log attached", "path", *traceLog)
	}

	logger.Info("listening", "addr", *addr,
		"workers", srv.Pool().Snapshot().Workers, "backend", srv.Backend())
	for _, d := range opencl.NewPlatform().Devices() {
		logger.Debug("device", "profile", d.Profile())
	}

	if *pprofAddr != "" {
		go serveDebug(logger, *pprofAddr)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("shutdown", "err", err)
		}
	}
}

// newLogger builds the daemon's slog.Logger from the -log-format and
// -log-level flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// serveDebug runs the pprof endpoints on their own listener so profiling
// traffic never shares a port (or an accidental exposure) with the API.
func serveDebug(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("pprof serve failed", "err", err)
	}
}
