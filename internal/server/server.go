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
	// StoreDir is the durable state directory: the WAL, run journals and
	// merged summaries. An HA pair shares it; only the fence-lease holder
	// opens it.
	StoreDir string
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
	// shared fencing file and serves as leader or standby follower.
	FenceFile string
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
	// now is the fencer's clock and fault the store's WAL fault hook
	// (tests; nil = time.Now and none).
	now   func() time.Time
	fault func(site string) bool
}

// Server is one chaserd instance: store + scheduler + tenant table behind
// the HTTP API. Construct with NewServer, serve with Start (or use
// Handler with a test server), stop with Shutdown.
//
// In HA mode the server is a role machine. As leader it owns the store
// and a live scheduler and serves the full API; as follower it owns
// neither and answers API calls with 307 redirects to the leader.
// Promotion (fence lease acquired) opens the shared store and builds a
// scheduler from it — exactly a restart, so every lease of the dead leader
// is implicitly expired. Demotion (a renewal that finds a newer epoch)
// tears the scheduler down and closes the store; the append guard has
// already fenced every write since the lease was lost.
type Server struct {
	cfg     ServerConfig
	reg     *obs.Registry
	tenants *Tenants
	logf    func(format string, args ...any)

	hsrv *http.Server
	ln   net.Listener

	fencer *Fencer // nil in standalone mode

	roleMu    sync.RWMutex
	leader    bool
	store     *Store     // non-nil iff leader (or standalone)
	sched     *Scheduler // non-nil iff leader (or standalone)
	leaderURL string     // best-known leader base URL
	advertise string

	haStop chan struct{}
	haOnce sync.Once
	haWG   sync.WaitGroup
}

// NewServer opens the store, replays the WAL, and wires the scheduler and
// tenant table. Tenant active-campaign counts are recovered from the
// replayed state so a restart cannot be used to dodge quotas. In HA mode
// neither the store nor the scheduler is opened yet: the node starts as a
// candidate and the role machine (Start) decides.
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
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		tenants: NewTenants(cfg.Tenants),
		logf:    logf,
		haStop:  make(chan struct{}),
	}
	if cfg.FenceFile == "" {
		// Standalone: leader forever at epoch 0, exactly the pre-HA chaserd.
		if err := s.lead(0, nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// lead opens the store and builds a scheduler over it, with the server's
// telemetry and tenant hooks: what a standalone chaserd does at startup
// and an HA node on promotion. Every append is stamped with epoch and
// must pass guard (nil = none).
func (s *Server) lead(epoch uint64, guard func() error) error {
	store, recs, err := OpenStore(s.cfg.StoreDir, StoreOptions{Fsync: s.cfg.Fsync, fault: s.cfg.fault})
	if err != nil {
		return err
	}
	store.SetEpoch(epoch)
	store.SetGuard(guard)
	scfg := s.cfg.Sched
	scfg.Obs = s.reg
	if scfg.Logf == nil {
		scfg.Logf = s.logf
	}
	scfg.OnTerminal = s.tenants.Release
	sched, err := NewScheduler(store, recs, scfg)
	if err != nil {
		store.Close()
		return err
	}
	s.tenants.Restore(sched.ActiveByTenant())
	s.roleMu.Lock()
	s.leader, s.store, s.sched = true, store, sched
	s.roleMu.Unlock()
	return nil
}

// stepDown stops the scheduler and closes the store, reporting whether the
// node was leading and the store's close error.
func (s *Server) stepDown() (bool, error) {
	s.roleMu.Lock()
	led, sched, store := s.leader, s.sched, s.store
	s.leader, s.sched, s.store, s.leaderURL = false, nil, nil, ""
	s.roleMu.Unlock()
	if sched != nil {
		sched.Stop()
	}
	if store == nil {
		return led, nil
	}
	return led, store.Close()
}

// Handler returns the API handler (for tests via httptest.Server).
func (s *Server) Handler() http.Handler { return s.handler() }

// Scheduler exposes the scheduler (in-process workers, tests). It is nil
// while the node is an HA follower.
func (s *Server) Scheduler() *Scheduler { return s.currentSched() }

// Registry exposes the metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Store exposes the store (tests). It is nil while the node is an HA
// follower.
func (s *Server) Store() *Store {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.store
}

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
	return s.leaderURL
}

// Advertise returns this node's advertise URL ("" before Start).
func (s *Server) Advertise() string {
	s.roleMu.RLock()
	defer s.roleMu.RUnlock()
	return s.advertise
}

// Start listens on cfg.Addr and serves the API in the background. It
// returns once the listener is bound, so the caller can print the
// resolved address before any request arrives. In HA mode it reads the
// fence first, so a standby redirects to the leader from its first
// request, and starts the role machine.
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
	s.roleMu.Unlock()
	if s.cfg.FenceFile != "" {
		s.fencer = NewFencer(s.cfg.FenceFile, adv, s.cfg.LeaderTTL, s.cfg.now)
		s.reg.Gauge("server_role").Set(0)
		cur, err := s.fencer.Observe()
		if err != nil {
			ln.Close()
			return err
		}
		s.roleMu.Lock()
		s.leaderURL = cur.Holder
		s.roleMu.Unlock()
	}
	s.hsrv = &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		if err := s.hsrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.logf("chaserd: serve: %v", err)
		}
	}()
	if s.fencer != nil {
		s.haWG.Add(1)
		go s.haLoop()
	}
	return nil
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

// promote turns the node into the leader at the given epoch: open the
// shared store, which rewrites the log to a new file (the fence against
// the previous leader's descriptor), stamp and guard its appends, and
// build a scheduler from it. No leases survive — a promotion is a restart,
// so every outstanding lease of the previous leader is implicitly expired
// and its shards re-enqueue (workers discover via 404 heartbeats and
// re-claim).
func (s *Server) promote(epoch uint64, prev fenceDoc) error {
	if err := s.lead(epoch, s.appendGuard); err != nil {
		return err
	}
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
// with it every in-memory lease) is dropped and the store closed. The
// append guard has fenced all writes since the lease was lost, and the new
// leader's open replaced the file this node was appending to.
func (s *Server) demote() {
	led, err := s.stepDown()
	if !led {
		return
	}
	if err != nil {
		s.logf("chaserd: closing the store: %v", err)
	}
	s.reg.Gauge("server_role").Set(0)
	s.reg.Counter("server_demotions_total").Inc()
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
	if serr := s.stopRole(true); err == nil {
		err = serr
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
}

// stopRole halts the role machine and scheduler and closes the store,
// returning the close error. release also gives up the fence lease
// (graceful shutdown only).
func (s *Server) stopRole(release bool) error {
	s.haOnce.Do(func() { close(s.haStop) })
	s.haWG.Wait()
	_, err := s.stepDown()
	if release && s.fencer != nil {
		if ferr := s.fencer.Release(); ferr != nil {
			s.logf("chaserd: fence release: %v", ferr)
		}
	}
	return err
}

// errNotLeader surfaces API calls that landed on a follower with no known
// leader to redirect to.
var errNotLeader = errors.New("server: not the leader")
