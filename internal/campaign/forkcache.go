package campaign

import (
	"chaser/internal/core"
	"chaser/internal/obs"
)

// snapEntry is one cache slot. A failed build is cached negatively
// (ws == nil, err != nil) so a site whose prefix run failed — it timed out or
// panicked — is not retried by every task that shares it.
type snapEntry struct {
	ws    *core.WorldSnapshot
	err   error
	bytes int64
}

// snapCache holds the resident rungs a ladder walk built itself (the chain's;
// the spine's belong to the Baseline), keyed by fork site. It belongs to one runPrepared call — a Baseline is shared by
// concurrent campaigns and this is not — except that BitSweep hands one to
// each of its entries in turn: they share the task list and therefore the
// fork points, so an entry finds the rung the one before left behind. It has
// no cap and no eviction: the ladder releases every rung it walks past, so
// what is resident is the chain's head, the rung just built from it, and the
// last rung of an earlier walk. Only the goroutine feeding a campaign's
// workers touches it, so it carries no lock.
//
// The bytes gauge charges a rung what it adds beside the rung it was advanced
// from (WorldSnapshot.FreshBytes): consecutive rungs share every page the
// guest did not write in between.
type snapCache struct {
	bytes   int64
	entries map[core.ForkSite]snapEntry

	gaugeBytes *obs.Gauge
	gaugeHigh  *obs.Gauge
}

func newSnapCache(reg *obs.Registry) *snapCache {
	return &snapCache{
		entries:    make(map[core.ForkSite]snapEntry),
		gaugeBytes: reg.Gauge("campaign_snapshot_cache_bytes"),
		gaugeHigh:  reg.Gauge("campaign_snapshot_cache_bytes_high_water"),
	}
}

// get returns the snapshot for key, building it via build unless an earlier
// result — a snapshot, or the error its prefix run failed with — is
// resident. The returned snapshot stays valid after its release (snapshots
// are immutable; release only drops the cache's reference).
func (c *snapCache) get(key core.ForkSite, build func() (*core.WorldSnapshot, error)) (*core.WorldSnapshot, error) {
	if e, ok := c.entries[key]; ok {
		return e.ws, e.err
	}
	ws, err := build()
	e := snapEntry{ws: ws, err: err}
	if ws != nil {
		e.bytes = ws.FreshBytes()
		c.bytes += e.bytes
		c.publish()
	}
	c.entries[key] = e
	return ws, err
}

// release drops key's snapshot: the ladder calls it for a rung no pending
// task can fork from any more, so a campaign over many sites keeps a few
// rungs resident, not all it ever built. Negative entries stay — they cost
// nothing and spare a sweep's later entries the retry.
func (c *snapCache) release(key core.ForkSite) {
	if e, ok := c.entries[key]; ok && e.ws != nil {
		delete(c.entries, key)
		c.bytes -= e.bytes
		c.publish()
	}
}

func (c *snapCache) publish() {
	c.gaugeBytes.Set(float64(c.bytes))
	c.gaugeHigh.SetMax(float64(c.bytes))
}
