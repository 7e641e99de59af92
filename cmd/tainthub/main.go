// Command tainthub runs a standalone TaintHub server: the head-node service
// that coordinates MPI message taint between Chaser instances (paper
// Fig. 5).
//
// Usage:
//
//	tainthub [-addr host:port] [-metrics-addr host:port] [-wal path] [-wire auto|json|binary]
//
// With -wal, every mutation (a publish, a retire) is written ahead to a
// crash-safe log, and every -snapshot-interval the process compacts that log
// in place: its head is rewritten to hold exactly the stored entries and the
// counters, and the records appended since go. The log is the only file; a
// restarted tainthub recovers exactly the entries a kill -9 interrupted, and
// because a poll only reads, in-flight campaigns ride out the outage through
// their clients' retries. SIGTERM/SIGINT compact the log a final time before
// exiting. A log whose compacted head is damaged, or that an older build
// wrote, is refused and left as it was.
//
// Entries stay stored until their namespace is retired (campaign shards and
// cmd/chaser retire theirs when they finish) or -ttl evicts them, so
// -max-pending and -max-pending-bytes bound what one run may publish in
// total, not what it has in flight.
//
// With -metrics-addr, the process also serves Prometheus text-format metrics
// on http://<metrics-addr>/metrics: request/publish/poll counters, RPC
// latency, malformed-request counts, WAL size, and a live snapshot of hub
// state.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chaser/internal/obs"
	"chaser/internal/tainthub"
	"chaser/internal/tainthub/codec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tainthub:", err)
		os.Exit(1)
	}
}

// statsHub is the slice of hub shared by Local and Durable that the
// metrics handler needs.
type statsHub interface {
	Stats() tainthub.Stats
}

// metricsHandler serves the registry in Prometheus text format, syncing the
// hub's own counters into gauges at scrape time so the exposition reflects
// live hub state without a background poller.
func metricsHandler(reg *obs.Registry, hub statsHub, walSize func() int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := hub.Stats()
		reg.Gauge("tainthub_statuses_published").Set(float64(st.Published))
		reg.Gauge("tainthub_status_polls").Set(float64(st.Polls))
		reg.Gauge("tainthub_status_poll_hits").Set(float64(st.Hits))
		reg.Gauge("tainthub_statuses_pending").Set(float64(st.Pending))
		reg.Gauge("tainthub_evicted").Set(float64(st.Evicted))
		if walSize != nil {
			reg.Gauge("tainthub_wal_size_bytes").Set(float64(walSize()))
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
}

func run(args []string) error {
	fs := flag.NewFlagSet("tainthub", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus metrics on http://<addr>/metrics (empty = disabled)")
	idleTimeout := fs.Duration("idle-timeout", 0, "drop connections idle longer than this (0 = never)")
	wal := fs.String("wal", "", "write-ahead log path; enables crash-safe durability (empty = in-memory only)")
	snapInterval := fs.Duration("snapshot-interval", 30*time.Second, "interval between compactions of the log (needs -wal; 0 = only at shutdown)")
	maxPending := fs.Int("max-pending", 0, "max entries a namespace stores until it is retired; publishes over it get a retryable busy response (0 = unlimited)")
	maxPendingBytes := fs.Int64("max-pending-bytes", 0, "max mask bytes a namespace stores until it is retired (0 = unlimited)")
	maxPayload := fs.Int("max-payload", 0, "max mask bytes in one publish; larger ones are rejected (0 = unlimited)")
	ttl := fs.Duration("ttl", 0, "evict entries older than this (namespaces a crashed owner never retired; 0 = never)")
	wire := fs.String("wire", "auto", "accepted wire format: auto (per-connection autodetect) | json | binary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wireFmt, err := codec.ParseFormat(*wire)
	if err != nil {
		return err
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
	}
	lim := tainthub.Limits{
		MaxPending:      *maxPending,
		MaxPendingBytes: *maxPendingBytes,
		MaxPayload:      *maxPayload,
		TTL:             *ttl,
	}

	var hub tainthub.Hub
	var durable *tainthub.Durable
	var walSize func() int64
	if *wal != "" {
		d, err := tainthub.OpenDurable(*wal, tainthub.DurableConfig{Limits: lim, Obs: reg})
		if err != nil {
			return err
		}
		durable = d
		hub = d
		walSize = d.WALSize
		defer durable.Close()
		fmt.Printf("tainthub: recovered %d records from %s\n", d.RecoveredRecords(), *wal)
	} else {
		hub = tainthub.NewLocalLimits(lim, reg)
	}

	srv, err := tainthub.NewServerConfig(hub, *addr, tainthub.ServerConfig{
		Obs: reg, IdleTimeout: *idleTimeout, Wire: wireFmt,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("tainthub listening on %s\n", srv.Addr())

	if reg != nil {
		mlis, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", metricsHandler(reg, hub, walSize))
		hsrv := &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := hsrv.Serve(mlis); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "tainthub: metrics server:", err)
			}
		}()
		defer hsrv.Close()
		fmt.Printf("tainthub metrics on http://%s/metrics\n", mlis.Addr())
	}

	// Periodic compactions bound recovery time and the log's growth.
	stopSnap := make(chan struct{})
	if durable != nil && *snapInterval > 0 {
		go func() {
			t := time.NewTicker(*snapInterval)
			defer t.Stop()
			for {
				select {
				case <-stopSnap:
					return
				case <-t.C:
					if err := durable.Snapshot(); err != nil {
						fmt.Fprintln(os.Stderr, "tainthub: snapshot:", err)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stopSnap)
	fmt.Println("tainthub: shutting down")
	// Drain connections first so in-flight mutations land in the final
	// compaction, then close the hub (Close compacts and fsyncs).
	if err := srv.Close(); err != nil {
		return err
	}
	if durable != nil {
		if err := durable.Close(); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		fmt.Println("tainthub: final snapshot written")
	}
	return nil
}
