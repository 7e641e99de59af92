package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"slices"
	"sync"
	"time"

	"chaser/internal/apps"
	"chaser/internal/campaign"
	"chaser/internal/obs"
)

// Shard lifecycle. Pending shards sit in the scheduler's queue (with a
// not-before stamp implementing retry backoff); a worker's Claim moves one
// to Leased under an expiring lease; Complete moves it to Done. Three
// things send a Leased shard back to Pending: an explicit Fail from the
// worker, lease expiry (the worker died or wedged — detected by the expiry
// loop when heartbeats stop), and a chaserd restart (leases are volatile by
// design, see store.go). After MaxShardRetries requeues the shard is
// quarantined as poison and its campaign fails rather than looping a
// crashing workload through the worker fleet forever.
type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
	shardQuarantined
)

func (s shardState) String() string {
	switch s {
	case shardPending:
		return "pending"
	case shardLeased:
		return "leased"
	case shardDone:
		return "done"
	case shardQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("shardstate(%d)", int(s))
}

// shard is one lease-scheduled slice of a campaign's run index space.
type shard struct {
	idx       int
	lo, hi    int
	state     shardState
	retries   int
	notBefore time.Time // backoff gate while pending
	lease     *lease
	lastErr   string
}

// lease is one worker's claim on one shard.
type lease struct {
	token   string
	cid     string
	shard   int
	worker  string
	expires time.Time
}

// Campaign status values.
const (
	StatusActive   = "active"
	StatusComplete = "complete"
	StatusFailed   = "failed"
)

// campaignState is the scheduler's view of one submitted campaign.
type campaignState struct {
	id     string
	tenant string
	spec   Spec
	hub    string
	nsBase int
	shards []*shard
	status string
	errMsg string
	// done is closed when the campaign reaches a terminal state; summary
	// long-polls block on it. The merged summary itself lives in the file
	// Store.WriteSummary wrote — a terminal campaign pins none of it here.
	done chan struct{}
}

func (c *campaignState) terminal() bool { return c.status != StatusActive }

// Assignment is everything a worker needs to execute one shard.
type Assignment struct {
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
	Spec     Spec   `json:"spec"`
	// Hub is the campaign's TaintHub address ("" = private in-process hubs);
	// NSBase offsets the run namespaces on it.
	Hub    string `json:"hub,omitempty"`
	NSBase int    `json:"ns_base,omitempty"`
	// Journal is the shard's run journal path (stable across re-enqueues).
	Journal string `json:"journal"`
	// Token authenticates heartbeat/complete/fail for this lease.
	Token string `json:"token"`
	// TTLMs is the lease duration; the worker must heartbeat well within it.
	TTLMs int64 `json:"ttl_ms"`
}

// ErrLeaseUnknown is returned for a token the scheduler does not recognize:
// the lease expired, was re-assigned, or belonged to a chaserd instance
// that has since restarted. The worker must abandon the shard.
var ErrLeaseUnknown = errors.New("server: unknown or expired lease")

// SchedConfig tunes the scheduler. The zero value selects production
// defaults; tests shrink the timings.
type SchedConfig struct {
	// LeaseTTL is how long a claim lives between heartbeats (default 15s).
	LeaseTTL time.Duration
	// ExpiryInterval is how often expired leases are collected (default
	// LeaseTTL/4).
	ExpiryInterval time.Duration
	// MaxShardRetries is how many requeues a shard gets before quarantine
	// (default 3).
	MaxShardRetries int
	// BackoffBase/BackoffMax shape the requeue backoff: base<<retries,
	// capped (defaults 250ms / 15s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Hubs lists TaintHub addresses; campaigns are assigned one by
	// consistent hash so hub capacity shards horizontally. Empty = private
	// in-process hubs per run.
	Hubs []string
	// DefaultShards overrides the spec-level default shard count for specs
	// that leave Shards zero (0 = DefaultShards const).
	DefaultShards int
	// Obs receives scheduler telemetry (nil disables it).
	Obs *obs.Registry
	// Logf overrides the scheduler's logger (nil = log.Printf).
	Logf func(format string, args ...any)
	// OnTerminal, when non-nil, is called (outside the scheduler lock) each
	// time a campaign reaches a terminal state; the server uses it to
	// release tenant quota.
	OnTerminal func(tenant string)
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.ExpiryInterval <= 0 {
		c.ExpiryInterval = c.LeaseTTL / 4
	}
	if c.MaxShardRetries <= 0 {
		c.MaxShardRetries = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 15 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Scheduler owns campaign and shard state: submission, lease-based claim /
// heartbeat / complete / fail, lease expiry, requeue with backoff, poison
// quarantine, and the merge that turns a finished campaign's shard journals
// into its summary. All methods are safe for concurrent use.
type Scheduler struct {
	cfg   SchedConfig
	store *Store

	mu        sync.Mutex
	campaigns map[string]*campaignState
	order     []string // submission order, for List
	// open lists the campaigns that are not terminal, in submission order:
	// what Claim scans. A campaign leaves it when it completes or fails, so
	// a claim costs the open campaigns, not every campaign ever submitted.
	open      []*campaignState
	leases    map[string]*lease
	nextID    int
	nextToken int
	nextNS    int

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewScheduler builds a scheduler over an opened store, replaying the WAL
// records OpenStore returned. Recovered non-terminal campaigns have their
// unfinished shards re-enqueued (counted in server_shards_requeued_total —
// a restart is just a mass lease expiry).
func NewScheduler(store *Store, recs []walRecord, cfg SchedConfig) (*Scheduler, error) {
	s := &Scheduler{
		cfg:       cfg.withDefaults(),
		store:     store,
		campaigns: make(map[string]*campaignState),
		leases:    make(map[string]*lease),
		stop:      make(chan struct{}),
	}
	if err := s.replay(recs); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.expiryLoop()
	return s, nil
}

// replay rebuilds in-memory state from WAL records.
func (s *Scheduler) replay(recs []walRecord) error {
	for _, rec := range recs {
		switch rec.T {
		case "campaign":
			if rec.Spec == nil {
				return fmt.Errorf("server: wal: campaign record %s without spec", rec.C)
			}
			if old := s.campaigns[rec.C]; old != nil {
				// The earlier record is a submit whose fsync failed; the
				// submit that reused its ID supersedes it.
				s.open = slices.DeleteFunc(s.open, func(c *campaignState) bool { return c == old })
				s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == rec.C })
			}
			s.addCampaignLocked(rec.C, *rec.Spec, rec.Hub, rec.NSBase)
		case "done":
			if c := s.campaigns[rec.C]; c != nil && rec.Shard < len(c.shards) {
				c.shards[rec.Shard].state = shardDone
			}
		case "requeue":
			if c := s.campaigns[rec.C]; c != nil && rec.Shard < len(c.shards) {
				sh := c.shards[rec.Shard]
				sh.retries = rec.Retries
				sh.lastErr = rec.Reason
			}
		case "quarantine":
			if c := s.campaigns[rec.C]; c != nil && rec.Shard < len(c.shards) {
				sh := c.shards[rec.Shard]
				sh.state = shardQuarantined
				sh.lastErr = rec.Reason
			}
		case "complete":
			if c := s.campaigns[rec.C]; c != nil {
				// Startup compaction folds a terminal campaign down to its
				// campaign + terminal records, so the per-shard done records
				// may be gone: the terminal record implies all of them.
				for _, sh := range c.shards {
					sh.state = shardDone
				}
				s.settleLocked(c, StatusComplete)
			}
		case "failed":
			if c := s.campaigns[rec.C]; c != nil {
				c.errMsg = rec.Err
				s.settleLocked(c, StatusFailed)
			}
		default:
			// Unknown record types are skipped, not fatal: a newer chaserd
			// may have written records this build does not understand.
			s.cfg.Logf("chaserd: wal: skipping unknown record type %q", rec.T)
		}
	}
	// Count shards coming back from the dead: they were leased or pending
	// when the previous instance died and are pending again now.
	requeued := 0
	for _, c := range s.campaigns {
		if c.terminal() {
			continue
		}
		for _, sh := range c.shards {
			if sh.state == shardPending && sh.retries > 0 {
				requeued++
			}
		}
		// A recovered complete-but-unrecorded campaign (crash between the
		// last shard's done record and the complete record) merges now.
		s.maybeFinishLocked(c)
	}
	if requeued > 0 {
		s.cfg.Obs.Counter("server_shards_requeued_total").Add(uint64(requeued))
		s.cfg.Logf("chaserd: recovered %d requeued shards from the WAL", requeued)
	}
	return nil
}

// addCampaignLocked materializes campaign state (submission and replay
// share it). Callers hold s.mu or run before the scheduler is visible.
func (s *Scheduler) addCampaignLocked(id string, sp Spec, hub string, nsBase int) *campaignState {
	c := &campaignState{
		id:     id,
		tenant: sp.Tenant,
		spec:   sp,
		hub:    hub,
		nsBase: nsBase,
		status: StatusActive,
		done:   make(chan struct{}),
		shards: make([]*shard, sp.Shards),
	}
	for i := range c.shards {
		lo, hi := sp.shardRange(i)
		c.shards[i] = &shard{idx: i, lo: lo, hi: hi}
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.open = append(s.open, c)
	// Track ID and namespace high-water marks so new submissions never
	// collide with recovered ones.
	var n int
	if _, err := fmt.Sscanf(id, "c%06d", &n); err == nil && n >= s.nextID {
		s.nextID = n + 1
	}
	if end := nsBase + sp.Runs; end > s.nextNS {
		s.nextNS = end
	}
	return c
}

// Submit validates the app, assigns the campaign an ID, a hub (consistent
// hash over the configured hub pool) and a hub namespace window, persists
// it, and enqueues its shards.
func (s *Scheduler) Submit(sp Spec) (string, error) {
	if sp.Shards == 0 && s.cfg.DefaultShards > 0 {
		sp.Shards = s.cfg.DefaultShards
	}
	sp = sp.normalize()
	if err := sp.validate(); err != nil {
		return "", err
	}
	if _, err := apps.ByName(sp.App); err != nil {
		return "", &SpecError{Field: "app", Reason: err.Error()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("c%06d", s.nextID)
	s.nextID++
	hub := ""
	if len(s.cfg.Hubs) > 0 {
		h := fnv.New32a()
		h.Write([]byte(id))
		hub = s.cfg.Hubs[int(h.Sum32())%len(s.cfg.Hubs)]
	}
	nsBase := s.nextNS
	if err := s.store.Append(walRecord{T: "campaign", C: id, Spec: &sp, Hub: hub, NSBase: nsBase}); err != nil {
		s.nextID-- // not persisted; reuse the ID
		return "", err
	}
	s.addCampaignLocked(id, sp, hub, nsBase)
	s.cfg.Obs.Counter("server_campaigns_submitted_total").Inc()
	s.cfg.Obs.Counter("server_shards_total").Add(uint64(sp.Shards))
	// An append stalled past the guard may have landed in a log a successor
	// replaced: pass the guard again, so a deposed leader answers ErrFenced
	// and the client fails over (at worst to one extra, correct campaign).
	if _, err := s.store.leading(); err != nil {
		return "", fmt.Errorf("%w: %v", ErrFenced, err)
	}
	return id, nil
}

// Claim hands the longest-waiting eligible shard to a worker under a fresh
// lease. It returns (nil, nil) when nothing is currently claimable (all
// pending shards are backing off, or there is no work).
func (s *Scheduler) Claim(worker string) (*Assignment, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.open {
		for _, sh := range c.shards {
			if sh.state != shardPending || now.Before(sh.notBefore) {
				continue
			}
			s.nextToken++
			l := &lease{
				token:   fmt.Sprintf("%s.%d.%d", c.id, sh.idx, s.nextToken),
				cid:     c.id,
				shard:   sh.idx,
				worker:  worker,
				expires: now.Add(s.cfg.LeaseTTL),
			}
			sh.state = shardLeased
			sh.lease = l
			s.leases[l.token] = l
			s.cfg.Obs.Counter("server_leases_granted_total").Inc()
			s.cfg.Obs.Gauge("server_leases_active").Set(float64(len(s.leases)))
			return &Assignment{
				Campaign: c.id,
				Shard:    sh.idx,
				Lo:       sh.lo,
				Hi:       sh.hi,
				Spec:     c.spec,
				Hub:      c.hub,
				NSBase:   c.nsBase,
				Journal:  s.store.JournalPath(c.id, sh.idx),
				Token:    l.token,
				TTLMs:    s.cfg.LeaseTTL.Milliseconds(),
			}, nil
		}
	}
	return nil, nil
}

// Heartbeat extends a lease to a full TTL from now.
func (s *Scheduler) Heartbeat(token string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.leases[token]
	if l == nil {
		return ErrLeaseUnknown
	}
	l.expires = time.Now().Add(s.cfg.LeaseTTL)
	return nil
}

// Complete marks a leased shard done. When it was the campaign's last open
// shard, the campaign's journals are merged into its summary.
func (s *Scheduler) Complete(token string) error {
	s.mu.Lock()
	l := s.leases[token]
	if l == nil {
		s.mu.Unlock()
		return ErrLeaseUnknown
	}
	c := s.campaigns[l.cid]
	sh := c.shards[l.shard]
	s.releaseLocked(l)
	if err := s.store.Append(walRecord{T: "done", C: c.id, Shard: sh.idx}); err != nil {
		sh.state = shardPending // not recorded, so not done: rerun from its journal
		s.mu.Unlock()
		return err
	}
	sh.state = shardDone
	sh.lastErr = ""
	s.cfg.Obs.Counter("server_shards_completed_total").Inc()
	terminal := s.maybeFinishLocked(c)
	tenant := c.tenant
	s.mu.Unlock()
	if terminal && s.cfg.OnTerminal != nil {
		s.cfg.OnTerminal(tenant)
	}
	return nil
}

// Fail reports a shard execution failure; the shard is re-enqueued with
// backoff or quarantined once its retry budget is spent.
func (s *Scheduler) Fail(token, reason string) error {
	s.mu.Lock()
	l := s.leases[token]
	if l == nil {
		s.mu.Unlock()
		return ErrLeaseUnknown
	}
	terminal, tenant := s.requeueLocked(l, reason), s.campaigns[l.cid].tenant
	s.mu.Unlock()
	if terminal && s.cfg.OnTerminal != nil {
		s.cfg.OnTerminal(tenant)
	}
	return nil
}

// releaseLocked drops a lease. Callers hold s.mu.
func (s *Scheduler) releaseLocked(l *lease) {
	delete(s.leases, l.token)
	if sh := s.campaigns[l.cid].shards[l.shard]; sh.lease == l {
		sh.lease = nil
	}
	s.cfg.Obs.Gauge("server_leases_active").Set(float64(len(s.leases)))
}

// requeueLocked sends a failed or expired shard back to the queue with
// exponential backoff, or quarantines it once retries are exhausted
// (failing its campaign). Returns whether the campaign reached a terminal
// state. Callers hold s.mu.
func (s *Scheduler) requeueLocked(l *lease, reason string) bool {
	c := s.campaigns[l.cid]
	sh := c.shards[l.shard]
	s.releaseLocked(l)
	sh.lastErr = reason
	if sh.retries >= s.cfg.MaxShardRetries {
		sh.state = shardQuarantined
		if err := s.store.Append(walRecord{T: "quarantine", C: c.id, Shard: sh.idx, Reason: reason}); err != nil {
			s.cfg.Logf("chaserd: wal: %v", err)
		}
		s.cfg.Obs.Counter("server_shards_quarantined_total").Inc()
		s.cfg.Logf("chaserd: campaign %s shard %d quarantined after %d attempts: %s",
			c.id, sh.idx, sh.retries+1, reason)
		return s.failCampaignLocked(c, fmt.Sprintf("shard %d quarantined: %s", sh.idx, reason))
	}
	sh.retries++
	backoff := s.cfg.BackoffBase << uint(sh.retries-1)
	if backoff <= 0 || backoff > s.cfg.BackoffMax {
		backoff = s.cfg.BackoffMax
	}
	sh.state = shardPending
	sh.notBefore = time.Now().Add(backoff)
	if err := s.store.Append(walRecord{T: "requeue", C: c.id, Shard: sh.idx, Retries: sh.retries, Reason: reason}); err != nil {
		s.cfg.Logf("chaserd: wal: %v", err)
	}
	s.cfg.Obs.Counter("server_shards_requeued_total").Inc()
	s.cfg.Logf("chaserd: campaign %s shard %d requeued (retry %d/%d, backoff %s): %s",
		c.id, sh.idx, sh.retries, s.cfg.MaxShardRetries, backoff, reason)
	return false
}

// failCampaignLocked moves a campaign to StatusFailed. Returns true when
// the campaign transitioned to a terminal state now. Callers hold s.mu.
func (s *Scheduler) failCampaignLocked(c *campaignState, msg string) bool {
	if c.terminal() {
		return false
	}
	c.errMsg = msg
	if err := s.store.Append(walRecord{T: "failed", C: c.id, Err: msg}); err != nil {
		s.cfg.Logf("chaserd: wal: %v", err)
	}
	s.settleLocked(c, StatusFailed)
	return true
}

// settleLocked gives c its terminal status, wakes its waiters and takes it
// out of the claim scan. Callers hold s.mu.
func (s *Scheduler) settleLocked(c *campaignState, status string) {
	c.status = status
	close(c.done)
	s.open = slices.DeleteFunc(s.open, func(o *campaignState) bool { return o == c })
}

// maybeFinishLocked merges a campaign whose shards are all done. Returns
// whether the campaign reached a terminal state. Callers hold s.mu; the
// merge itself reads only immutable journal files and the campaign's spec,
// both safe under the lock (journals of done shards no longer change).
func (s *Scheduler) maybeFinishLocked(c *campaignState) bool {
	if c.terminal() {
		return false
	}
	for _, sh := range c.shards {
		if sh.state != shardDone {
			return false
		}
	}
	app, err := apps.ByName(c.spec.App)
	if err != nil {
		return s.failCampaignLocked(c, err.Error())
	}
	cfg := campaignConfig(c.spec, app, c.nsBase)
	cfg.Obs = s.cfg.Obs
	paths := make([]string, len(c.shards))
	for i := range c.shards {
		paths[i] = s.store.JournalPath(c.id, i)
	}
	sum, err := campaign.MergeJournals(cfg, s.cfg.Obs, paths...)
	if err != nil {
		return s.failCampaignLocked(c, fmt.Sprintf("merge: %v", err))
	}
	if data, err := json.Marshal(struct {
		Report  string            `json:"report"`
		Summary *campaign.Summary `json:"summary"`
	}{sum.Report(), sum}); err == nil {
		if werr := s.store.WriteSummary(c.id, data); werr != nil {
			s.cfg.Logf("chaserd: %v", werr)
		}
	}
	if err := s.store.Append(walRecord{T: "complete", C: c.id}); err != nil {
		s.cfg.Logf("chaserd: wal: %v", err)
	}
	s.settleLocked(c, StatusComplete)
	s.cfg.Obs.Counter("server_campaigns_completed_total").Inc()
	s.cfg.Logf("chaserd: campaign %s complete (%d runs over %d shards)", c.id, c.spec.Runs, len(c.shards))
	return true
}

// expiryLoop collects dead leases: a worker that stopped heartbeating —
// killed, OOMed, wedged, partitioned — has its shard re-enqueued exactly as
// if it had reported failure. ZOFI's cheap-restart philosophy, applied to
// the scheduler: worker death is routine, not exceptional.
func (s *Scheduler) expiryLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.ExpiryInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.expireOnce(time.Now())
		}
	}
}

// expireOnce requeues every lease past its deadline (exposed for tests).
func (s *Scheduler) expireOnce(now time.Time) {
	var terminal []string
	s.mu.Lock()
	for _, l := range s.leases {
		if now.Before(l.expires) {
			continue
		}
		s.cfg.Obs.Counter("server_lease_expired_total").Inc()
		s.cfg.Logf("chaserd: lease %s (worker %s) expired; requeueing campaign %s shard %d",
			l.token, l.worker, l.cid, l.shard)
		if s.requeueLocked(l, fmt.Sprintf("lease expired (worker %s)", l.worker)) {
			terminal = append(terminal, s.campaigns[l.cid].tenant)
		}
	}
	s.mu.Unlock()
	if s.cfg.OnTerminal != nil {
		for _, tenant := range terminal {
			s.cfg.OnTerminal(tenant)
		}
	}
}

// Stop halts the expiry loop. It does not touch persisted state.
func (s *Scheduler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// CampaignStatus is the JSON status of one campaign.
type CampaignStatus struct {
	ID     string        `json:"id"`
	Tenant string        `json:"tenant"`
	Spec   Spec          `json:"spec"`
	Hub    string        `json:"hub,omitempty"`
	Status string        `json:"status"`
	Err    string        `json:"err,omitempty"`
	Shards []ShardStatus `json:"shards"`
	// DoneRuns sums the run windows of completed shards — a cheap progress
	// proxy that needs no journal reads.
	DoneRuns  int `json:"done_runs"`
	TotalRuns int `json:"total_runs"`
}

// ShardStatus is the JSON status of one shard.
type ShardStatus struct {
	Shard   int    `json:"shard"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	State   string `json:"state"`
	Retries int    `json:"retries,omitempty"`
	Worker  string `json:"worker,omitempty"`
	LastErr string `json:"last_err,omitempty"`
}

// statusLocked assembles a CampaignStatus. Callers hold s.mu.
func (c *campaignState) statusLocked() CampaignStatus {
	st := CampaignStatus{
		ID:     c.id,
		Tenant: c.tenant,
		Spec:   c.spec,
		Hub:    c.hub,
		Status: c.status,
		Err:    c.errMsg,
		Shards: make([]ShardStatus, len(c.shards)),

		TotalRuns: c.spec.Runs,
	}
	for i, sh := range c.shards {
		ss := ShardStatus{
			Shard: sh.idx, Lo: sh.lo, Hi: sh.hi,
			State: sh.state.String(), Retries: sh.retries, LastErr: sh.lastErr,
		}
		if sh.lease != nil {
			ss.Worker = sh.lease.worker
		}
		if sh.state == shardDone {
			st.DoneRuns += sh.hi - sh.lo
		}
		st.Shards[i] = ss
	}
	return st
}

// Status returns one campaign's status (nil when unknown).
func (s *Scheduler) Status(id string) *CampaignStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return nil
	}
	st := c.statusLocked()
	return &st
}

// List returns every campaign's status in submission order, optionally
// filtered by tenant.
func (s *Scheduler) List(tenant string) []CampaignStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CampaignStatus, 0, len(s.order))
	for _, id := range s.order {
		c := s.campaigns[id]
		if tenant != "" && c.tenant != tenant {
			continue
		}
		out = append(out, c.statusLocked())
	}
	return out
}

// Done returns the campaign's terminal-state channel (nil when unknown).
func (s *Scheduler) Done(id string) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.campaigns[id]; c != nil {
		return c.done
	}
	return nil
}

// ActiveByTenant counts non-terminal campaigns per tenant (quota recovery
// after a restart).
func (s *Scheduler) ActiveByTenant() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int)
	for _, c := range s.open {
		out[c.tenant]++
	}
	return out
}
