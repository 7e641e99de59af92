package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"chaser/internal/obs"
	"chaser/internal/server"
	"chaser/internal/tainthub"
)

// serviceWorkers is the worker count of the service workloads: with
// Parallel 1 per shard it keeps at most nproc = 2 runs executing at once.
const serviceWorkers = 2

// workerPoll is the workers' idle claim cadence. The default 500 ms is sized
// for a fleet; at it a 50 ms campaign would mostly measure the sleep.
const workerPoll = 5 * time.Millisecond

// service is the whole stack in one process over loopback: a durable
// TaintHub behind its TCP server, chaserd with its WAL, and workers bound to
// chaserd over HTTP.
type service struct {
	dir     string
	hub     *tainthub.Durable
	hubSrv  *tainthub.Server
	hubReg  *obs.Registry  // hub server telemetry, traced repetitions only
	proxy   *countingProxy // in front of the hub, traced repetitions only
	srv     *server.Server
	workers []*server.Worker
	client  *server.Client
}

func quiet(string, ...any) {}

// startService brings the stack up under dir. It returns once chaserd
// accepts submissions and the workers poll for shards.
func startService(dir string, fsync bool, t *tracing) (*service, error) {
	s := &service{dir: dir}
	var err error
	if s.hub, err = tainthub.OpenDurable(filepath.Join(dir, "hub.wal"), tainthub.DurableConfig{}); err != nil {
		return nil, err
	}
	if t != nil {
		s.hubReg = obs.NewRegistry()
	}
	s.hubSrv, err = tainthub.NewServerConfig(s.hub, "127.0.0.1:0", tainthub.ServerConfig{Obs: s.hubReg, Logf: quiet})
	if err != nil {
		return nil, err
	}
	hubAddr := s.hubSrv.Addr()
	if t != nil {
		if s.proxy, err = newCountingProxy(hubAddr); err != nil {
			return nil, err
		}
		hubAddr = s.proxy.addr()
	}
	s.srv, err = server.NewServer(server.ServerConfig{
		Addr:     "127.0.0.1:0",
		StoreDir: filepath.Join(dir, "chaserd"),
		Fsync:    fsync,
		Logf:     quiet,
		Sched:    server.SchedConfig{Hubs: []string{hubAddr}, Logf: quiet},
		// Admission control is not what these workloads measure.
		Tenants: server.TenantLimits{MaxActive: 1 << 20, RatePerSec: 1e9, Burst: 1 << 20},
	})
	if err != nil {
		return nil, err
	}
	if err := s.srv.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < serviceWorkers; i++ {
		// Workers share chaserd's registry, as `chaserd -pool N` wires them.
		cfg := server.WorkerConfig{
			Name:         fmt.Sprintf("bench-%d", i),
			Control:      server.NewClient(s.srv.Addr()),
			PollInterval: workerPoll,
			Obs:          s.srv.Registry(),
			Logf:         quiet,
		}
		if t != nil {
			tc := tracedControl{inner: cfg.Control, t: t, obs: cfg.Obs, lane: 10 + i}
			cfg.Control, cfg.RunShard = tc, tc.runShard
		}
		w := server.NewWorker(cfg)
		w.Start()
		s.workers = append(s.workers, w)
	}
	s.client = server.NewClient(s.srv.Addr())
	return s, nil
}

// stop drains the workers and shuts chaserd and the hub server down. The
// durable hub is left open: the caller decides between Close and Abandon.
func (s *service) stop() error {
	for _, w := range s.workers {
		w.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if s.proxy != nil {
		s.proxy.close()
	}
	if cerr := s.hubSrv.Close(); err == nil {
		err = cerr
	}
	return err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
