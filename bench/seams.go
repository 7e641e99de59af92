package main

import (
	"sync"
	"time"

	"chaser/internal/campaign"
	"chaser/internal/core"
	"chaser/internal/obs"
	"chaser/internal/server"
	"chaser/internal/tainthub"
)

// tracing is what the seams of a traced repetition share: the span recorder,
// per-call latency samples, and the per-campaign timestamps that queue-wait
// and merge-wait are taken from. A nil *tracing is the untraced path: the
// workloads then install no seam at all.
type tracing struct {
	rec *recorder

	mu      sync.Mutex
	samples map[string][]float64 // seconds, by span name
	claims  int
	idle    int
	hubFail int
	leases  map[string]*server.Assignment // by token, claim to complete
	// Per campaign, as offsets on the recorder's clock.
	submitted    map[string]time.Duration // Submit called
	firstClaim   map[string]time.Duration // first shard handed to a worker
	lastComplete map[string]time.Duration // last Complete called (it carries the merge)
	reported     map[string]time.Duration // WaitSummary returned
	// firstCampaign is the id chaserd gave submitter 0's first campaign.
	firstCampaign string
	// results are the first runs a RunObserver saw, kept for the stage
	// replay (classification and provenance are timed on real results).
	results []observedRun
}

type observedRun struct {
	rank int
	res  *core.RunResult
}

// keepResults is how many run results the observer retains.
const keepResults = 40

func newTracing() *tracing {
	return &tracing{
		rec:          newRecorder(),
		samples:      make(map[string][]float64),
		leases:       make(map[string]*server.Assignment),
		submitted:    make(map[string]time.Duration),
		firstClaim:   make(map[string]time.Duration),
		lastComplete: make(map[string]time.Duration),
		reported:     make(map[string]time.Duration),
	}
}

// recorder is the span recorder, nil (and so a no-op) untraced.
func (t *tracing) recorder() *recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// now is the offset on the recorder's clock (0 untraced).
func (t *tracing) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.rec.t0)
}

func (t *tracing) observe(name string, d time.Duration) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], d.Seconds())
	t.mu.Unlock()
}

// timed runs f inside a span and keeps its duration as a sample; untraced
// it just runs f.
func (t *tracing) timed(name string, parent int, campaign string, shard, lane int, f func()) {
	if t == nil {
		f()
		return
	}
	id := t.rec.begin(name, parent, campaign, shard, lane)
	f()
	t.observe(name, t.rec.end(id))
}

// openWait starts the campaign's container span once Submit, called at
// offset at, has returned its id.
func (t *tracing) openWait(campaign string, at time.Duration, rc roundCtx) int {
	if t == nil {
		return 0
	}
	box := t.rec.begin("server.wait_summary", rc.span, campaign, -1, rc.sub)
	t.rec.bindCampaign(campaign, box)
	t.mu.Lock()
	t.submitted[campaign] = at
	if rc.sub == 0 && t.firstCampaign == "" {
		t.firstCampaign = campaign
	}
	t.mu.Unlock()
	return box
}

// closeWait ends the container when WaitSummary returns.
func (t *tracing) closeWait(campaign string, box int) {
	if t == nil {
		return
	}
	t.rec.end(box)
	now := t.now()
	t.mu.Lock()
	t.reported[campaign] = now
	t.mu.Unlock()
}

// observer is the campaign.Config.RunObserver seam.
func (t *tracing) observer(_, rank int, _ campaign.RunOutcome, res *core.RunResult) {
	if res == nil {
		return
	}
	t.mu.Lock()
	if len(t.results) < keepResults {
		t.results = append(t.results, observedRun{rank, res})
	}
	t.mu.Unlock()
}

// waits returns, per campaign, submit to first claim and the last shard's
// Complete call to the report in hand, in seconds.
func (t *tracing) waits() (queue, merge []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, at := range t.submitted {
		if c, ok := t.firstClaim[id]; ok {
			queue = append(queue, max(c-at, 0).Seconds())
		}
	}
	for id, at := range t.reported {
		if c, ok := t.lastComplete[id]; ok {
			merge = append(merge, max(at-c, 0).Seconds())
		}
	}
	return queue, merge
}

// timedHub is the campaign.Config.Hub seam: it times every RPC the campaign
// makes on the hub behind it.
type timedHub struct {
	hub tainthub.Hub
	t   *tracing
}

func (h timedHub) Publish(id tainthub.ReqID, k tainthub.Key, seq uint64, masks []uint8) error {
	start := time.Now()
	err := h.hub.Publish(id, k, seq, masks)
	h.done(start, err)
	return err
}

func (h timedHub) Poll(id tainthub.ReqID, k tainthub.Key, seq uint64) ([]uint8, bool, error) {
	start := time.Now()
	masks, ok, err := h.hub.Poll(id, k, seq)
	h.done(start, err)
	return masks, ok, err
}

func (h timedHub) Stats() tainthub.Stats { return h.hub.Stats() }

func (h timedHub) done(start time.Time, err error) {
	d := time.Since(start)
	h.t.mu.Lock()
	h.t.samples["tainthub.rpc"] = append(h.t.samples["tainthub.rpc"], d.Seconds())
	if err != nil {
		h.t.hubFail++
	}
	h.t.mu.Unlock()
}

// tracedControl is the WorkerConfig.Control seam: a span and a latency
// sample per scheduler call a worker makes.
type tracedControl struct {
	inner server.Control
	t     *tracing
	obs   *obs.Registry // the worker's registry, handed on to ExecuteShard
	lane  int
}

func (c tracedControl) Claim(worker string) (*server.Assignment, error) {
	id := c.t.rec.begin("server.claim", 0, "", -1, c.lane)
	a, err := c.inner.Claim(worker)
	d := c.t.rec.end(id)
	now := c.t.now()
	c.t.mu.Lock()
	c.t.claims++
	if a == nil {
		c.t.idle++
	} else {
		c.t.leases[a.Token] = a
		if _, seen := c.t.firstClaim[a.Campaign]; !seen {
			c.t.firstClaim[a.Campaign] = now
		}
	}
	c.t.mu.Unlock()
	if a == nil {
		c.t.rec.relabel(id, "server.claim_idle", "", -1)
	} else {
		c.t.rec.relabel(id, "server.claim", a.Campaign, a.Shard)
		c.t.observe("server.claim", d)
	}
	return a, err
}

func (c tracedControl) Heartbeat(token string) error {
	var err error
	c.t.timed("server.heartbeat", 0, "", -1, c.lane, func() { err = c.inner.Heartbeat(token) })
	return err
}

func (c tracedControl) Complete(token string) error {
	c.t.mu.Lock()
	a := c.t.leases[token]
	delete(c.t.leases, token)
	now := c.t.now()
	c.t.lastComplete[a.Campaign] = max(c.t.lastComplete[a.Campaign], now)
	c.t.mu.Unlock()
	var err error
	c.t.timed("server.complete", 0, a.Campaign, a.Shard, c.lane, func() { err = c.inner.Complete(token) })
	return err
}

func (c tracedControl) Fail(token, reason string) error { return c.inner.Fail(token, reason) }

// runShard is the WorkerConfig.RunShard seam around server.ExecuteShard.
func (c tracedControl) runShard(a *server.Assignment) error {
	var err error
	c.t.timed("server.shard", 0, a.Campaign, a.Shard, c.lane, func() {
		err = server.ExecuteShard(a, nil, c.obs)
	})
	return err
}
