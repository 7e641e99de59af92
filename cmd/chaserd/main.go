// Command chaserd runs the campaign control plane and its workers.
//
// Server mode (default) accepts experiment specs over HTTP, shards each
// campaign, and schedules the shards across workers under expiring leases,
// persisting every state transition in a crash-safe store so a restarted
// chaserd resumes exactly where it died:
//
//	chaserd -addr 127.0.0.1:7070 -store /var/lib/chaserd
//	chaserd -store ./state -pool 2              # plus 2 in-process workers
//	chaserd -store ./state -hubs hub1:7071,hub2:7071
//
// Worker mode (-worker) claims shards from a chaserd and executes them,
// heartbeating its leases; any number of workers may point at one server,
// across machines:
//
//	chaserd -worker -connect http://127.0.0.1:7070 -name w1
//
// HA mode pairs two servers over one shared store directory and fence
// file: whichever holds the fence lease opens the store and leads, the
// other is a standby that redirects to it and, within about one
// -leader-ttl of the leader going silent, opens the same store and takes
// over. Workers and clients take the full peer list and fail over
// automatically:
//
//	chaserd -store ./shared -fence-file ./shared/fence \
//	    -advertise http://127.0.0.1:7070 -addr 127.0.0.1:7070 -role leader
//	chaserd -store ./shared -fence-file ./shared/fence \
//	    -advertise http://127.0.0.1:7071 -addr 127.0.0.1:7071 -role follower
//	chaserd -worker -connect http://127.0.0.1:7070,http://127.0.0.1:7071
//
// SIGTERM/SIGINT shut either mode down gracefully: the server drains HTTP
// and closes its store (campaign state is durable); a worker finishes its
// current shard first — or, killed harder, simply stops heartbeating and
// the server re-enqueues its shard after the lease expires.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chaser/internal/obs"
	"chaser/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "chaserd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("chaserd", flag.ContinueOnError)
	// Server mode.
	addr := fs.String("addr", "127.0.0.1:7070", "listen address (server mode)")
	storeDir := fs.String("store", "", "durable state directory, shared by an HA pair (server mode; required)")
	pool := fs.Int("pool", 0, "in-process workers to run alongside the server (single-binary mode)")
	hubs := fs.String("hubs", "", "comma-separated TaintHub addresses; campaigns are hashed across them (empty = private in-process hubs)")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second, "shard lease duration; a worker silent this long loses its shard")
	maxRetries := fs.Int("max-retries", 3, "shard re-enqueues before quarantine")
	defaultShards := fs.Int("default-shards", 0, "shard count for specs that leave it unset (0 = built-in default)")
	maxActive := fs.Int("tenant-max-active", 0, "active campaigns per tenant (0 = default)")
	ratePerSec := fs.Float64("tenant-rate", 0, "sustained submissions/s per tenant (0 = default)")
	burst := fs.Int("tenant-burst", 0, "submission burst per tenant (0 = default)")
	// HA mode.
	fenceFile := fs.String("fence-file", "", "shared fencing file; setting it enables HA leader election")
	advertise := fs.String("advertise", "", "this node's externally reachable base URL (default http://<addr>)")
	role := fs.String("role", "", "startup role bias: leader contends immediately, follower yields one TTL first")
	leaderTTL := fs.Duration("leader-ttl", 3*time.Second, "fence lease duration; a leader silent this long is deposed")
	fsync := fs.Bool("fsync", false, "fsync the WAL on every append")
	// Worker mode.
	worker := fs.Bool("worker", false, "run as a worker instead of a server")
	connect := fs.String("connect", "", "chaserd URL to claim shards from (worker mode)")
	name := fs.String("name", "", "worker name in server logs and shard status (default worker-<pid>)")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle claim retry interval (worker mode)")
	idleExit := fs.Duration("idle-exit", 0, "exit after this long without claimable work (worker mode; 0 = run forever)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	if *worker {
		return runWorker(*connect, *name, *poll, *idleExit, sigc)
	}
	return runServer(serverOpts{
		addr: *addr, storeDir: *storeDir, pool: *pool, hubs: *hubs,
		leaseTTL: *leaseTTL, maxRetries: *maxRetries, defaultShards: *defaultShards,
		maxActive: *maxActive, ratePerSec: *ratePerSec, burst: *burst,
		fenceFile: *fenceFile, advertise: *advertise,
		role: *role, leaderTTL: *leaderTTL, fsync: *fsync,
	}, sigc)
}

type serverOpts struct {
	addr, storeDir, hubs     string
	pool, maxRetries         int
	defaultShards, maxActive int
	burst                    int
	ratePerSec               float64
	leaseTTL                 time.Duration

	fenceFile, advertise string
	role                 string
	leaderTTL            time.Duration
	fsync                bool
}

func runServer(o serverOpts, sigc <-chan os.Signal) error {
	if o.storeDir == "" {
		return fmt.Errorf("server mode requires -store DIR")
	}
	var hubList []string
	if o.hubs != "" {
		for _, h := range strings.Split(o.hubs, ",") {
			if h = strings.TrimSpace(h); h != "" {
				hubList = append(hubList, h)
			}
		}
	}
	srv, err := server.NewServer(server.ServerConfig{
		Addr:     o.addr,
		StoreDir: o.storeDir,
		Obs:      obs.NewRegistry(),
		Sched: server.SchedConfig{
			LeaseTTL:        o.leaseTTL,
			MaxShardRetries: o.maxRetries,
			DefaultShards:   o.defaultShards,
			Hubs:            hubList,
		},
		Tenants: server.TenantLimits{
			MaxActive:  o.maxActive,
			RatePerSec: o.ratePerSec,
			Burst:      o.burst,
		},
		FenceFile:      o.fenceFile,
		AdvertiseURL:   o.advertise,
		LeaderTTL:      o.leaderTTL,
		RolePreference: o.role,
		Fsync:          o.fsync,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Printf("chaserd listening on %s\n", srv.Addr())

	workers := make([]*server.Worker, o.pool)
	for i := range workers {
		// LocalControl; with -fence-file over HTTP, so pool workers survive
		// this node being an HA follower and follow redirects to the leader.
		control := server.Control(server.LocalControl{Sched: srv.Scheduler()})
		if o.fenceFile != "" {
			control = server.NewClient(srv.Advertise())
		}
		workers[i] = server.NewWorker(server.WorkerConfig{
			Name:    fmt.Sprintf("pool-%d", i),
			Control: control,
			Obs:     srv.Registry(),
		})
		workers[i].Start()
	}

	sig := <-sigc
	fmt.Fprintf(os.Stderr, "chaserd: %s; shutting down\n", sig)
	for _, w := range workers {
		go w.Stop() // workers finish their current shard; don't serialize
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

func runWorker(connect, name string, poll, idleExit time.Duration, sigc <-chan os.Signal) error {
	if connect == "" {
		return fmt.Errorf("worker mode requires -connect URL (comma-separated for an HA pair)")
	}
	w := server.NewWorker(server.WorkerConfig{
		Name:         name,
		Control:      server.NewClient(connect),
		PollInterval: poll,
		IdleExit:     idleExit,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run()
	}()
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "chaserd: %s; finishing current shard\n", sig)
		w.Stop()
		<-done
	case <-done:
	}
	return nil
}
