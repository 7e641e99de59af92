package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"chaser/internal/obs"
)

// ServerConfig wires one chaserd instance.
type ServerConfig struct {
	// Addr is the listen address (e.g. "127.0.0.1:7070"; ":0" for tests).
	Addr string
	// StoreDir is this node's private durable state directory (the WAL).
	StoreDir string
	// DataDir holds run journals and merged summaries. HA pairs must share
	// it (workers write journals there; whichever node is leader merges
	// them). Empty = StoreDir.
	DataDir string
	// Sched tunes the scheduler (Obs and OnTerminal are overwritten by the
	// server's own wiring).
	Sched SchedConfig
	// Tenants bounds per-tenant admission.
	Tenants TenantLimits
	// Obs is the metrics registry (nil allocates a private one).
	Obs *obs.Registry
	// Logf overrides the server logger (nil = log.Printf).
	Logf func(format string, args ...any)

	// FenceFile enables HA mode: the node contends for the lease in this
	// shared fencing file and serves as leader or hot-standby follower.
	FenceFile string
	// Peer is the other node's base URL — the follower's replication source
	// until the fence names a leader, and the redirect fallback.
	Peer string
	// AdvertiseURL is this node's externally reachable base URL, used as
	// its fence-holder identity and in redirects (default http://<Addr>).
	AdvertiseURL string
	// LeaderTTL is the fence lease duration (default 3s). A leader silent
	// this long is considered dead; the follower promotes within roughly
	// one TTL.
	LeaderTTL time.Duration
	// RolePreference biases startup contention: "leader" contends
	// immediately, "follower" waits one LeaderTTL first so a designated
	// leader wins the initial race. "" = contend immediately.
	RolePreference string
	// Fsync syncs the WAL on every append.
	Fsync bool
	// Chaos arms the self-chaos harness (nil = off).
	Chaos *Chaos
}

// Server is one chaserd instance: store + scheduler + tenant table behind
// the HTTP API. Construct with NewServer, serve with Start (or use
// Handler with a test server), stop with Shutdown.
//
// In HA mode the server is a role machine. As leader it owns a live
// scheduler and serves the full API plus the replication stream; as
// follower it owns no scheduler, continuously replays the leader's WAL
// into its own store, and answers API calls with 307 redirects to the
// leader. Promotion (fence lease acquired) builds a scheduler from the
// replicated store — semantically identical to a restart, so every lease
// of the dead leader is implicitly expired. Demotion (a renewal that finds
// a newer epoch) tears the scheduler down; the append guard has already
// fenced every write since the lease was lost.
type Server struct {
	cfg     ServerConfig
	reg     *obs.Registry
	store   *Store
	tenants *Tenants
	logf    func(format string, args ...any)
	chaos   *Chaos

	hsrv *http.Server
	ln   net.Listener

	fencer *Fencer // nil in standalone mode

	roleMu    sync.RWMutex
	leader    bool
	sched     *Scheduler  // non-nil iff leader (or standalone)
	repl      *replicator // non-nil iff HA follower
	leaderURL string      // best-known leader base URL
	advertise string

	haStop chan struct{}
	haOnce sync.Once
	haWG   sync.WaitGroup
}

// NewServer opens the store, replays the WAL, and wires the scheduler and
// tenant table. Tenant active-campaign counts are recovered from the
// replayed state so a restart cannot be used to dodge quotas. In HA mode
// the scheduler is not built yet: the node starts as a candidate and the
// role machine (Start) decides.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("server: StoreDir required")
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	if cfg.LeaderTTL <= 0 {
		cfg.LeaderTTL = 3 * time.Second
	}
	cfg.Chaos.SetObs(reg)
	store, recs, err := OpenStore(cfg.StoreDir, StoreOptions{
		DataDir: cfg.DataDir,
		Fsync:   cfg.Fsync,
		Chaos:   cfg.Chaos,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		store:   store,
		tenants: NewTenants(cfg.Tenants),
		logf:    logf,
		chaos:   cfg.Chaos,
		haStop:  make(chan struct{}),
	}
	if cfg.FenceFile == "" {
		// Standalone: leader forever at epoch 0, exactly the pre-HA chaserd.
		sched, err := s.buildScheduler(recs)
		if err != nil {
			store.Close()
			return nil, err
		}
		s.leader = true
		s.sched = sched
		s.tenants.Restore(sched.ActiveByTenant())
	}
	return s, nil
}

// buildScheduler wires a scheduler over the store with the server's
// telemetry and tenant hooks.
func (s *Server) buildScheduler(recs []walRecord) (*Scheduler, error) {
	scfg := s.cfg.Sched
	scfg.Obs = s.reg
	if scfg.Logf == nil {
		scfg.Logf = s.logf
	}
	scfg.OnTerminal = s.tenants.Release
	return NewScheduler(s.store, recs, scfg)
}

// Handler returns the API handler (for tests via httptest.Server).
func (s *Server) Handler() http.Handler { return s.handler() }

// Scheduler exposes the scheduler (in-process workers, tests). It is nil
// while the node is an HA follower.
func (s *Server) Scheduler() *Scheduler { return s.currentSched() }

// Registry exposes the metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Store exposes the store (tests).
func (s *Server) Store() *Store { return s.store }

func (s *Server) currentSched() *Scheduler {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.sched
}

// IsLeader reports whether this node currently serves writes.
func (s *Server) IsLeader() bool {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.leader
}

// Epoch returns the node's current fencing epoch (0 standalone/follower).
func (s *Server) currentEpoch() uint64 {
	if s.fencer == nil {
		return 0
	}
	return s.fencer.Epoch()
}

// leaderHint returns the best-known leader base URL ("" = unknown).
func (s *Server) leaderHint() string {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	if s.leaderURL != "" {
		return s.leaderURL
	}
	return s.cfg.Peer
}

// Advertise returns this node's advertise URL ("" before Start).
func (s *Server) Advertise() string {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.advertise
}

// Start listens on cfg.Addr and serves the API in the background. It
// returns once the listener is bound, so the caller can print the
// resolved address before any request arrives. In HA mode it also starts
// the role machine (fence contention, replication).
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	adv := s.cfg.AdvertiseURL
	if adv == "" {
		adv = "http://" + ln.Addr().String()
	}
	s.roleMu.Lock()
	s.advertise = adv
	if s.cfg.FenceFile == "" {
		s.leaderURL = adv
	}
	s.roleMu.Unlock()
	s.hsrv = &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		if err := s.hsrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.logf("chaserd: serve: %v", err)
		}
	}()
	if s.cfg.FenceFile != "" {
		s.fencer = NewFencer(s.cfg.FenceFile, adv, s.cfg.LeaderTTL, s.chaos.Clock(time.Now))
		s.reg.Gauge("server_role").Set(0)
		s.startReplicatorLocked()
		s.haWG.Add(1)
		go s.haLoop()
	}
	return nil
}

// startReplicatorLocked launches the follower's replication loop. Callers
// must not hold roleMu... it takes it itself.
func (s *Server) startReplicatorLocked() {
	repl := newReplicator(s.store, s.fencer, s.reg, s.logf, s.Advertise(), s.leaderHint)
	s.roleMu.Lock()
	s.repl = repl
	s.roleMu.Unlock()
	repl.start()
}

// haLoop is the role machine: contend for the fence while follower, renew
// while leader, demote on deposition.
func (s *Server) haLoop() {
	defer s.haWG.Done()
	rng := rand.New(rand.NewSource(int64(siteHash(s.Advertise()))))
	ttl := s.cfg.LeaderTTL
	if s.cfg.RolePreference == "follower" {
		// Give a designated leader one full TTL to claim first.
		if !s.haSleep(ttl) {
			return
		}
	}
	for {
		select {
		case <-s.haStop:
			return
		default:
		}
		if s.IsLeader() {
			if !s.haSleep(ttl / 3) {
				return
			}
			if err := s.fencer.Renew(); err != nil {
				s.logf("chaserd: deposed: %v", err)
				s.demote()
			}
			continue
		}
		epoch, acquired, prev, err := s.fencer.TryAcquire()
		if err != nil {
			s.logf("chaserd: fence: %v", err)
			s.haSleep(ttl / 2)
			continue
		}
		if !acquired {
			if prev.Holder != "" {
				s.roleMu.Lock()
				s.leaderURL = prev.Holder
				s.roleMu.Unlock()
			}
			// Poll again inside the TTL so promotion lands within ~one TTL
			// of the leader's death; jittered so two followers don't beat
			// in lockstep.
			s.haSleep(time.Duration(float64(ttl/4) * (0.75 + 0.5*rng.Float64())))
			continue
		}
		if err := s.promote(epoch, prev); err != nil {
			s.logf("chaserd: promotion failed: %v", err)
			s.fencer.Release()
			s.haSleep(ttl / 2)
		}
	}
}

// haSleep waits d, returning false if the role machine is stopping.
func (s *Server) haSleep(d time.Duration) bool {
	select {
	case <-s.haStop:
		return false
	case <-time.After(d):
		return true
	}
}

// promote turns the node into the leader at the given epoch: stop
// replicating, stamp and guard the store, and build a scheduler from the
// replicated log. No leases survive — a promotion is a restart, so every
// outstanding lease of the previous leader is implicitly expired and its
// shards re-enqueue (workers discover via 404 heartbeats and re-claim).
func (s *Server) promote(epoch uint64, prev fenceDoc) error {
	s.roleMu.Lock()
	repl := s.repl
	s.repl = nil
	s.roleMu.Unlock()
	if repl != nil {
		repl.halt()
	}
	s.store.SetEpoch(epoch)
	s.store.SetGuard(s.appendGuard)
	sched, err := s.buildScheduler(s.store.Records())
	if err != nil {
		return err
	}
	s.tenants.Restore(sched.ActiveByTenant())
	s.roleMu.Lock()
	s.leader = true
	s.sched = sched
	s.leaderURL = s.advertise
	s.roleMu.Unlock()
	s.reg.Gauge("server_role").Set(1)
	if prev.Epoch > 0 && prev.Holder != s.Advertise() {
		s.reg.Counter("server_failovers_total").Inc()
		s.logf("chaserd: promoted to leader at epoch %d (took over from %s, epoch %d)", epoch, prev.Holder, prev.Epoch)
	} else {
		s.logf("chaserd: leading at epoch %d", epoch)
	}
	return nil
}

// demote turns a deposed leader back into a follower: the scheduler (and
// with it every in-memory lease) is dropped, and the replicator resyncs
// the store from the new leader. The append guard has fenced all writes
// since the lease was lost, so nothing divergent is on disk.
func (s *Server) demote() {
	s.roleMu.Lock()
	if !s.leader {
		s.roleMu.Unlock()
		return
	}
	s.leader = false
	sched := s.sched
	s.sched = nil
	s.leaderURL = ""
	s.roleMu.Unlock()
	if sched != nil {
		sched.Stop()
	}
	s.reg.Gauge("server_role").Set(0)
	s.reg.Counter("server_demotions_total").Inc()
	s.startReplicatorLocked()
	s.logf("chaserd: demoted to follower")
}

// appendGuard validates the fence lease before every local WAL append.
// Rejections are the server_fenced_appends_total the acceptance criteria
// count: a deposed leader gets exactly zero writes through.
func (s *Server) appendGuard() error {
	if s.fencer == nil {
		return nil
	}
	if err := s.fencer.Validate(); err != nil {
		s.reg.Counter("server_fenced_appends_total").Inc()
		return err
	}
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains the HTTP server (bounded by ctx), stops the role
// machine and expiry loop, releases the fence lease (so a standby promotes
// immediately instead of waiting out the TTL), and closes the WAL.
// Campaign state is durable: a later NewServer over the same StoreDir
// resumes every active campaign.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.hsrv != nil {
		err = s.hsrv.Shutdown(ctx)
	}
	s.stopRole(true)
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort is Shutdown without draining — for tests simulating a crash. The
// fence lease is deliberately NOT released: the standby must notice the
// silence and wait out the TTL, exactly as after a kill -9.
func (s *Server) Abort() {
	if s.hsrv != nil {
		s.hsrv.Close()
	}
	s.stopRole(false)
	s.store.Close()
}

// stopRole halts the role machine, scheduler and replicator. release also
// gives up the fence lease (graceful shutdown only).
func (s *Server) stopRole(release bool) {
	s.haOnce.Do(func() { close(s.haStop) })
	s.haWG.Wait()
	s.roleMu.Lock()
	sched, repl := s.sched, s.repl
	s.sched, s.repl = nil, nil
	s.leader = false
	s.roleMu.Unlock()
	if sched != nil {
		sched.Stop()
	}
	if repl != nil {
		repl.halt()
	}
	if release && s.fencer != nil {
		if err := s.fencer.Release(); err != nil {
			s.logf("chaserd: fence release: %v", err)
		}
	}
}

// errNotLeader surfaces API calls that landed on a follower with no known
// leader to redirect to.
var errNotLeader = errors.New("server: not the leader")
