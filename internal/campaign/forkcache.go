package campaign

import (
	"container/list"

	"chaser/internal/core"
	"chaser/internal/obs"
)

// DefaultSnapshotCacheBytes caps the fork-point snapshot cache when the
// config leaves SnapshotCacheBytes zero.
const DefaultSnapshotCacheBytes = 256 << 20

// snapEntry is one cache slot. A failed build is cached negatively
// (ws == nil, err != nil) so a site that cannot pause — e.g. one that lands
// mid-MPI-progress — is not retried by every task that shares it.
type snapEntry struct {
	ws    *core.WorldSnapshot
	err   error
	bytes int64
	elem  *list.Element
}

// snapCache holds the resident rungs of the checkpoint ladder: a byte-capped
// LRU of world snapshots keyed by fork site. It is owned by the campaign
// baseline, so BitSweep entries — which share the task list and therefore
// the fork points — find the rungs an earlier entry left behind. Only the
// goroutine feeding a campaign's workers touches it (campaigns on one
// baseline run one after the other), so it carries no lock.
//
// A rung is charged what it adds beside the rung it was advanced from
// (WorldSnapshot.FreshBytes): consecutive rungs share every page the guest
// did not write in between, and charging each for the whole world would make
// a ladder evict itself. The charge is fixed at insertion, so once a
// predecessor is dropped the pages its successor shared with it stay resident
// uncharged — exact while a chain is resident whole, a lower bound otherwise.
type snapCache struct {
	cap      int64
	bytes    int64
	resident int // positive entries
	entries  map[core.ForkSite]*snapEntry
	lru      *list.List // front = most recently used; values are core.ForkSite

	gaugeBytes *obs.Gauge
	gaugeHigh  *obs.Gauge
	evictions  *obs.Counter
}

func newSnapCache(capBytes int64, reg *obs.Registry) *snapCache {
	if capBytes == 0 {
		capBytes = DefaultSnapshotCacheBytes
	}
	return &snapCache{
		cap:        capBytes,
		entries:    make(map[core.ForkSite]*snapEntry),
		lru:        list.New(),
		gaugeBytes: reg.Gauge("campaign_snapshot_cache_bytes"),
		gaugeHigh:  reg.Gauge("campaign_snapshot_cache_bytes_high_water"),
		evictions:  reg.Counter("campaign_snapshot_evictions_total"),
	}
}

// get returns the snapshot for key, building it via build unless an earlier
// result — a snapshot, or the error that says the site cannot pause — is
// resident. The returned snapshot stays valid even if evicted afterwards
// (snapshots are immutable; eviction only drops the cache's reference).
func (c *snapCache) get(key core.ForkSite, build func() (*core.WorldSnapshot, error)) (*core.WorldSnapshot, error) {
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		return e.ws, e.err
	}
	ws, err := build()
	e := &snapEntry{ws: ws, err: err, elem: c.lru.PushFront(key)}
	c.entries[key] = e
	if ws != nil {
		e.bytes = ws.FreshBytes()
		c.bytes += e.bytes
		c.resident++
		c.evict()
		c.publish()
	}
	return ws, err
}

// release drops key's snapshot ahead of the LRU: the ladder calls it for a
// rung no pending task can fork from any more, so a campaign over many sites
// keeps a few rungs resident, not all it ever built. Negative entries stay —
// they cost nothing and spare later campaigns on this baseline the retry.
func (c *snapCache) release(key core.ForkSite) {
	if e, ok := c.entries[key]; ok && e.ws != nil {
		c.remove(key, e)
		c.publish()
	}
}

// evict drops least-recently-used snapshots until the cache fits its cap,
// always keeping at least one resident so a single oversized world still
// multiplexes.
func (c *snapCache) evict() {
	for el := c.lru.Back(); el != nil && c.bytes > c.cap && c.resident > 1; {
		key := el.Value.(core.ForkSite)
		el = el.Prev()
		if e := c.entries[key]; e.ws != nil { // a negative entry frees nothing
			c.remove(key, e)
			c.evictions.Inc()
		}
	}
}

// remove deletes a positive entry.
func (c *snapCache) remove(key core.ForkSite, e *snapEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, key)
	c.bytes -= e.bytes
	c.resident--
}

func (c *snapCache) publish() {
	c.gaugeBytes.Set(float64(c.bytes))
	c.gaugeHigh.SetMax(float64(c.bytes))
}
