package server

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"chaser/internal/apps"
	"chaser/internal/campaign"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
)

// Control is the worker's view of the scheduler: claim a shard, keep its
// lease alive, report the result. LocalControl binds it in-process (tests,
// single-binary mode); Client binds it over HTTP (the worker fleet).
type Control interface {
	// Claim requests work. (nil, nil) means none is currently available.
	Claim(worker string) (*Assignment, error)
	// Heartbeat extends the lease; ErrLeaseUnknown means it is gone and the
	// worker must abandon the shard.
	Heartbeat(token string) error
	// Complete reports successful shard execution.
	Complete(token string) error
	// Fail reports a shard execution error.
	Fail(token, reason string) error
}

// LocalControl adapts a Scheduler into a Control for in-process workers.
type LocalControl struct{ Sched *Scheduler }

func (l LocalControl) Claim(worker string) (*Assignment, error) { return l.Sched.Claim(worker) }
func (l LocalControl) Heartbeat(token string) error             { return l.Sched.Heartbeat(token) }
func (l LocalControl) Complete(token string) error              { return l.Sched.Complete(token) }
func (l LocalControl) Fail(token, reason string) error          { return l.Sched.Fail(token, reason) }

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// Name identifies the worker in scheduler logs and shard status.
	Name string
	// Control is the scheduler binding (required).
	Control Control
	// PollInterval is the idle claim retry cadence (default 500ms).
	PollInterval time.Duration
	// IdleExit, when positive, stops the worker after that long without
	// claimable work (batch mode; 0 = run until Stop).
	IdleExit time.Duration
	// Obs receives worker telemetry (nil disables it).
	Obs *obs.Registry
	// Logf overrides the worker's logger (nil = log.Printf).
	Logf func(format string, args ...any)
	// RunShard overrides shard execution (tests stub it; nil = ExecuteShard).
	RunShard func(a *Assignment) error
}

// Worker claims shards from a Control and executes them until stopped. The
// failure contract is symmetrical with the scheduler's: any shard error —
// including a panic in the campaign engine — is reported via Fail so the
// scheduler can retry elsewhere or quarantine, and a lease the scheduler no
// longer recognizes makes the worker abandon the shard silently (its
// journal keeps the completed runs).
//
// A shard is a campaign.Run, so every Worker of a process runs its shards on
// the process's resident campaign Baselines: one per app — the golden run's
// outputs and counts, the translation cache it warmed, and the spine of
// checkpoints the shards leave along the golden run. A golden run happens
// once per app per process, whichever worker claims the app's first shard
// and whichever campaign it belongs to, and a shard that fails takes its
// app's Baseline with it, so the retry starts from a fresh golden run.
type Worker struct {
	cfg  WorkerConfig
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewWorker builds a worker. Call Run (blocking) or Start (background).
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	// Jitter RNG seeded from the worker name: deterministic per worker but
	// decorrelated across a fleet, so heartbeats and claim retries never
	// phase-lock into a thundering herd against a freshly promoted leader.
	return &Worker{
		cfg:  cfg,
		stop: make(chan struct{}),
		rng:  rand.New(rand.NewSource(int64(siteHash(cfg.Name)))),
	}
}

func siteHash(site string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// jitter scales base by a uniform draw from [lo, lo+spread).
func (w *Worker) jitter(base time.Duration, lo, spread float64) time.Duration {
	w.rngMu.Lock()
	f := lo + spread*w.rng.Float64()
	w.rngMu.Unlock()
	return time.Duration(float64(base) * f)
}

// Start runs the worker loop in the background.
func (w *Worker) Start() {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.Run()
	}()
}

// Stop asks the worker to finish its current shard and exit; it returns
// after the loop has drained.
func (w *Worker) Stop() {
	w.once.Do(func() { close(w.stop) })
	w.wg.Wait()
}

// Run is the claim-execute loop. It returns when stopped, or — with
// IdleExit set — after the idle deadline passes with no claimable work.
func (w *Worker) Run() {
	idleSince := time.Now()
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		a, err := w.cfg.Control.Claim(w.cfg.Name)
		if err != nil {
			w.cfg.Logf("%s: claim: %v", w.cfg.Name, err)
		}
		if a == nil {
			if w.cfg.IdleExit > 0 && time.Since(idleSince) >= w.cfg.IdleExit {
				w.cfg.Logf("%s: idle for %s; exiting", w.cfg.Name, w.cfg.IdleExit)
				return
			}
			select {
			case <-w.stop:
				return
			case <-time.After(w.jitter(w.cfg.PollInterval, 0.5, 1.0)):
			}
			continue
		}
		idleSince = time.Now()
		w.cfg.Obs.Counter("worker_shards_claimed_total").Inc()
		w.cfg.Logf("%s: claimed campaign %s shard %d (runs [%d,%d))",
			w.cfg.Name, a.Campaign, a.Shard, a.Lo, a.Hi)
		w.execute(a)
	}
}

// execute runs one assignment under a live lease, converting every failure
// mode — error return, panic, lost lease — into the right Control call.
func (w *Worker) execute(a *Assignment) {
	// Heartbeat at a third of the TTL so two beats can be lost before the
	// lease expires. lost is closed when the scheduler disowns the lease
	// (expired, or chaserd restarted): the shard's work is abandoned —
	// NOT completed — because another worker may already own it.
	lost := make(chan struct{})
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		interval := time.Duration(a.TTLMs) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
		// Each beat lands at 0.7x-1.3x the base interval: the mean keeps
		// the two-missed-beats safety margin while a worker fleet spreads
		// its load over the window instead of beating in lockstep.
		timer := time.NewTimer(w.jitter(interval, 0.7, 0.6))
		defer timer.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-timer.C:
				timer.Reset(w.jitter(interval, 0.7, 0.6))
				if err := w.cfg.Control.Heartbeat(a.Token); err != nil {
					if errors.Is(err, ErrLeaseUnknown) {
						w.cfg.Logf("%s: lease for campaign %s shard %d gone; abandoning",
							w.cfg.Name, a.Campaign, a.Shard)
						w.cfg.Obs.Counter("worker_shards_abandoned_total").Inc()
						close(lost)
						return
					}
					w.cfg.Logf("%s: heartbeat: %v", w.cfg.Name, err)
				}
			}
		}
	}()

	err := w.runShard(a, lost)
	close(hbStop)
	hbWG.Wait()

	select {
	case <-lost:
		// Lease disowned mid-run: nothing to report; the journal keeps
		// whatever completed.
		return
	default:
	}
	if err != nil {
		if rerr := w.cfg.Control.Fail(a.Token, err.Error()); rerr != nil {
			if !errors.Is(rerr, ErrLeaseUnknown) {
				w.cfg.Logf("%s: fail report: %v", w.cfg.Name, rerr)
			}
			return
		}
		w.cfg.Obs.Counter("worker_shards_failed_total").Inc()
		return
	}
	if rerr := w.cfg.Control.Complete(a.Token); rerr != nil {
		if !errors.Is(rerr, ErrLeaseUnknown) {
			w.cfg.Logf("%s: complete report: %v", w.cfg.Name, rerr)
		}
		return
	}
	w.cfg.Obs.Counter("worker_shards_completed_total").Inc()
}

// runShard executes the assignment on the process's resident Baseline for
// its app, converting panics into errors so a poisoned shard (one that
// crashes the engine deterministically) surfaces as bounded retries and
// quarantine instead of killing the worker fleet.
func (w *Worker) runShard(a *Assignment, lost <-chan struct{}) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if w.cfg.RunShard != nil {
		return w.cfg.RunShard(a)
	}
	return executeShard(a, lost, w.cfg.Obs, campaign.Run)
}

// ExecuteShard runs one shard of a campaign: build the deterministic
// campaign config from the assignment, journal to the shard's stable path
// (resuming if a previous attempt left one — re-enqueued shards pick up
// where the dead worker stopped), and execute only the assigned run window.
// stop aborts execution early (lost lease, worker shutdown). It is a cold
// shard: it prepares a Baseline of its own, whatever the process keeps; a
// Worker runs the same shard on the process's resident one.
func ExecuteShard(a *Assignment, stop <-chan struct{}, reg *obs.Registry) error {
	return executeShard(a, stop, reg, func(cfg campaign.Config) (*campaign.Summary, error) {
		base, err := campaign.Prepare(cfg)
		if err != nil {
			return nil, err
		}
		return base.Run(cfg)
	})
}

// executeShard runs the shard's campaign config through run.
func executeShard(a *Assignment, stop <-chan struct{}, reg *obs.Registry, run func(campaign.Config) (*campaign.Summary, error)) error {
	app, err := apps.ByName(a.Spec.App)
	if err != nil {
		return err
	}
	cfg := campaignConfig(a.Spec, app, a.NSBase)
	cfg.Shard = &campaign.ShardRange{Lo: a.Lo, Hi: a.Hi}
	cfg.Stop = stop
	cfg.Obs = reg
	cfg.Journal = a.Journal
	if a.Hub != "" {
		client, err := tainthub.DialConfig(a.Hub, tainthub.ClientConfig{MaxAttempts: 12})
		if err != nil {
			return fmt.Errorf("connecting to taint hub: %w", err)
		}
		defer client.Close()
		cfg.Hub = client
	}
	if _, err := run(cfg); err != nil {
		if errors.Is(err, campaign.ErrInterrupted) {
			err = fmt.Errorf("shard interrupted: %w", err)
		}
		return err
	}
	return nil
}
