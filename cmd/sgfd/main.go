// Command sgfd serves the plausible-deniability synthesis pipeline over
// HTTP: fit generative models from uploaded CSVs (or the built-in ACS
// simulation) and stream privacy-tested synthetic records as NDJSON. See
// the package documentation of internal/server for the endpoint list and
// README.md in this directory for a curl walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on the opt-in -pprof-addr listener only
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tenant"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "total synthesis workers shared across requests (0 = GOMAXPROCS)")
		cacheCap    = flag.Int("cache", 8, "maximum resident models (LRU)")
		maxBody     = flag.Int64("max-upload", 32<<20, "maximum fit request body in bytes")
		storeDir    = flag.String("store-dir", "", "directory for model snapshots; fitted models persist here and warm-start on boot (empty = no persistence)")
		storeMax    = flag.Int64("store-max-bytes", 0, "cap on total snapshot bytes in store-dir, oldest evicted first (0 = unlimited)")
		keysFile    = flag.String("keys-file", "", "tenant key file (JSON): enables API-key authentication, roles and per-tenant rate limits on /v1/*; SIGHUP reloads it (empty = no authentication)")
		budgetEps   = flag.Float64("tenant-budget-eps", 0, "default lifetime privacy budget ε per tenant: synthesize requests that would push a tenant's composed (ε, δ) past it get 403 (0 = no enforcement; the records-released ledger still counts, and persists in -store-dir)")
		budgetDelta = flag.Float64("tenant-budget-delta", 1e-6, "default lifetime privacy budget δ per tenant (used with -tenant-budget-eps)")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled); keep it loopback-only or firewalled")
		quiet       = flag.Bool("quiet", false, "disable per-request access-log lines (startup/error lines still log)")
		version     = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version)
		return
	}
	if *logFormat != "text" && *logFormat != "json" {
		fmt.Fprintf(os.Stderr, "sgfd: -log-format must be text or json, got %q\n", *logFormat)
		os.Exit(2)
	}

	logger := obs.NewLogger(os.Stderr, *logFormat == "json", slog.LevelInfo)
	fatal := func(msg string, err error) {
		logger.Error(msg, slog.String("error", err.Error()))
		os.Exit(1)
	}

	var auth *tenant.Registry
	if *keysFile != "" {
		var err error
		if auth, err = tenant.Load(*keysFile); err != nil {
			fatal("loading tenant keys", err)
		}
		logger.Info("authentication enabled",
			slog.Int("tenants", auth.Len()),
			slog.String("keys_file", *keysFile),
			slog.String("reload", "SIGHUP"))
		// Hot reload: key rotation must not need a restart (a restart drops
		// every in-flight stream and, without a store, every fitted model).
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := auth.Reload(); err != nil {
					logger.Error("SIGHUP: reloading tenant keys failed; previous set stays active",
						slog.String("error", err.Error()))
				} else {
					logger.Info("SIGHUP: reloaded tenant keys", slog.Int("tenants", auth.Len()))
				}
			}
		}()
	}

	if *pprofAddr != "" {
		// pprof stays off the serving listener: profiles can leak request
		// contents and timings, so they bind to their own (ideally loopback)
		// address. net/http/pprof registers on DefaultServeMux.
		go func() {
			logger.Info("pprof listening", slog.String("addr", *pprofAddr))
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", slog.String("error", err.Error()))
			}
		}()
	}

	srv, err := server.New(server.Config{
		PoolSize:          *workers,
		CacheCap:          *cacheCap,
		MaxUploadBytes:    *maxBody,
		StoreDir:          *storeDir,
		StoreMaxBytes:     *storeMax,
		Auth:              auth,
		TenantBudgetEps:   *budgetEps,
		TenantBudgetDelta: *budgetDelta,
		Logger:            logger,
		AccessLog:         !*quiet,
	})
	if err != nil {
		fatal("starting server", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// No WriteTimeout: synthesize streams are legitimately long; the
		// handler applies a rolling per-batch write deadline instead.
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	storeDesc := "none"
	if *storeDir != "" {
		storeDesc = *storeDir
	}
	logger.Info("sgfd listening",
		slog.String("version", buildinfo.Version),
		slog.String("addr", *addr),
		slog.Int("workers", *workers),
		slog.Int("cache", *cacheCap),
		slog.String("store", storeDesc))

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown", slog.String("error", err.Error()))
		}
		// Flush the snapshot store so a model whose write-through snapshot
		// failed gets one more chance to survive the restart.
		if err := srv.Close(); err != nil {
			logger.Error("store flush", slog.String("error", err.Error()))
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("serving", err)
		}
	}
}
