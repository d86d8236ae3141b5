// Command gedserver runs a standalone global event detector: applications
// connect over the framed binary wire protocol, contribute local
// primitive events, and subscribe to global composite events defined by
// the spec file — or stream the durable contribution log from any offset.
//
// Usage:
//
//	gedserver -listen 127.0.0.1:7070 [-spec global.snp] [-log dir]
//	          [-log-sync] [-segment-bytes n] [-queue n] [-drain 2s]
//	          [-debug 127.0.0.1:7071]
//
// The spec file may declare composite events over the (explicit) event
// names applications contribute, e.g.:
//
//	event e1 = e1_decl; ...
//
// With -log set, every contribution is appended to a segmented,
// CRC-checksummed log under that directory before detection, and clients
// can replay it from any offset (at-least-once delivery). -log-sync adds
// an fsync per append batch.
//
// One gedserver is the one global event detector of a deployment (the
// paper's Figure 2): every application that shares events connects to it,
// so a global composite sees all of its constituents.
//
// With -debug set, an HTTP server on that address serves /metrics
// (Prometheus text format: detector and wire/log/backpressure metrics)
// and /debugz (metrics snapshot plus the global event graph in DOT form).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/debug"
	"repro/internal/ged"
	"repro/internal/obs"
	"repro/internal/snoop"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "address to listen on")
	spec := flag.String("spec", "", "Sentinel spec file with global event definitions")
	logDir := flag.String("log", "", "directory for the durable contribution log (off when empty)")
	logSync := flag.Bool("log-sync", false, "fsync the contribution log after every append batch")
	segBytes := flag.Int64("segment-bytes", 0, "log segment roll size in bytes (0 = default 8 MiB)")
	queue := flag.Int("queue", 0, "per-connection send queue capacity in frames (0 = default 256)")
	drain := flag.Duration("drain", 2*time.Second, "shutdown drain deadline per connection")
	debugAddr := flag.String("debug", "", "address for the /metrics and /debugz HTTP endpoints (off when empty)")
	flag.Parse()

	server, err := ged.NewServerOptions(ged.Options{
		LogDir:          *logDir,
		LogSegmentBytes: *segBytes,
		LogSync:         *logSync,
		SendQueue:       *queue,
		DrainTimeout:    *drain,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gedserver:", err)
		os.Exit(1)
	}
	if *spec != "" {
		src, err := os.ReadFile(*spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gedserver:", err)
			os.Exit(1)
		}
		comp := &snoop.Compiler{Det: server.Det}
		if err := comp.CompileSource(string(src)); err != nil {
			fmt.Fprintln(os.Stderr, "gedserver:", err)
			os.Exit(1)
		}
	}
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		server.Det.RegisterMetrics(reg)
		server.RegisterMetrics(reg)
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.MetricsHandler())
		mux.Handle("/debugz", reg.DebugzHandler(obs.DebugzSection{
			Title:  "event graph (DOT)",
			Render: func(w io.Writer) error { return debug.DOT(server.Det, w) },
		}))
		go func() {
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "gedserver: debug server:", err)
			}
		}()
		fmt.Println("gedserver debug endpoints on", *debugAddr)
	}
	addr, err := server.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gedserver:", err)
		os.Exit(1)
	}
	fmt.Println("gedserver listening on", addr)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	fmt.Println("gedserver shutting down")
	if err := server.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gedserver:", err)
		os.Exit(1)
	}
	fmt.Println("gedserver shutdown clean")
}
