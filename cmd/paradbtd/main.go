// Command paradbtd is the multi-tenant translation server daemon: one
// shared translation service (rule store, single-flight prototype
// cache) serving workload runs for any number of tenants over HTTP. See
// docs/SERVING.md.
//
//	go run ./cmd/paradbtd -addr :8921
//	curl 'localhost:8921/run?bench=mcf&tenants=64'
//	curl localhost:8921/metrics
//
// SIGINT/SIGTERM shut down gracefully: in-flight requests finish, the
// translation service closes, and the final metrics snapshot is written
// to stderr (or -flush).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paramdbt/internal/backend"
	"paramdbt/internal/obs"
	"paramdbt/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8921", "listen address")
	scale := flag.Int("scale", 1, "workload dynamic-work multiplier")
	shadowRate := flag.Float64("shadow-rate", 1, "tenant starting shadow-verification rate")
	noAdaptive := flag.Bool("no-adaptive", false, "disable the per-tenant adaptive guard controller")
	halfLife := flag.Uint64("shadow-half-life", 0, "clean checks per rate halving (0 = default)")
	backendName := flag.String("backend", "", "host backend (default: "+backend.Default().Name()+")")
	flushPath := flag.String("flush", "", "write the shutdown metrics snapshot here (default stderr)")
	flag.Parse()

	if err := run(*addr, *scale, *shadowRate, *noAdaptive, *halfLife, *backendName, *flushPath); err != nil {
		fmt.Fprintln(os.Stderr, "paradbtd:", err)
		os.Exit(1)
	}
}

func run(addr string, scale int, shadowRate float64, noAdaptive bool, halfLife uint64, backendName, flushPath string) error {
	obs.SetEnabled(true)

	var be backend.Backend
	if backendName != "" {
		var err error
		if be, err = backend.Lookup(backendName); err != nil {
			return err
		}
	}
	var flushTo io.Writer = os.Stderr
	if flushPath != "" {
		f, err := os.Create(flushPath)
		if err != nil {
			return err
		}
		defer f.Close()
		flushTo = f
	}

	srv, err := serve.NewServer(serve.Config{
		Scale:          scale,
		ShadowRate:     shadowRate,
		NoShadow:       shadowRate == 0,
		NoAdaptive:     noAdaptive,
		ShadowHalfLife: halfLife,
		Backend:        be,
		FlushTo:        flushTo,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "paradbtd serving %d workloads on http://%s/run\n",
		len(srv.Benches()), ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "paradbtd: %v, draining\n", s)
	case err := <-errc:
		srv.Close()
		return err
	}

	// Graceful shutdown: stop accepting, let in-flight /run requests
	// finish, then close the translation service and flush final stats.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	return srv.Close()
}
