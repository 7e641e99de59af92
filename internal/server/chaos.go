package server

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"chaser/internal/obs"
	"chaser/internal/wal"
)

// Self-chaos: Chaser injecting faults into Chaser. The control plane's
// whole job is surviving the fault classes the injectors study, so it gets
// the same treatment the guest programs do — a deterministic, seeded
// fault-point layer with named sites threaded through the store and the
// fencer. Armed via the -chaos flag or the CHASERD_CHAOS environment
// variable:
//
//	CHASERD_CHAOS="seed=42,rate=0.05,sites=wal.short_write+clock.freeze"
//
// Each site draws from its own deterministic sequence (seed ⊕ site hash ⊕
// per-site counter through a splitmix64 mix), so two runs with the same
// seed inject the same faults at the same decision points regardless of
// goroutine interleaving elsewhere.

// Chaos site names. The catalog is documented in docs/ROBUSTNESS.md.
const (
	// ChaosWALShortWrite makes a WAL append write only half its frame and
	// report an error (a torn write(2); the log repairs by truncating).
	ChaosWALShortWrite = wal.FaultShortWrite
	// ChaosWALFsync fails the fsync after an append (Fsync mode only).
	ChaosWALFsync = wal.FaultSync
	// ChaosClockFreeze freezes the fencer's clock for several reads, so a
	// live leader misses renewals and gets deposed while still running.
	ChaosClockFreeze = "clock.freeze"
)

var chaosSites = []string{
	ChaosWALShortWrite, ChaosWALFsync, ChaosClockFreeze,
}

// clockFreezeReads is how many consecutive clock reads a single
// clock.freeze hit pins to the frozen instant.
const clockFreezeReads = 16

// Chaos is a deterministic fault-point layer. The nil *Chaos is valid and
// injects nothing, so call sites need no guards.
type Chaos struct {
	seed  uint64
	rate  float64
	sites map[string]bool
	reg   *obs.Registry

	mu     sync.Mutex
	counts map[string]uint64
	// clock.freeze state: the pinned instant and reads remaining.
	frozenAt    time.Time
	frozenReads int
}

// ParseChaos builds a Chaos from its textual spec: comma-separated
// key=value pairs with keys seed (uint), rate (0..1, default 0.01) and
// sites ('+'-separated site names, or "all"). Empty spec = nil (disarmed).
func ParseChaos(spec string) (*Chaos, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	c := &Chaos{rate: 0.01, sites: make(map[string]bool), counts: make(map[string]uint64)}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("server: chaos: %q is not key=value", kv)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("server: chaos: bad seed %q", val)
			}
			c.seed = n
		case "rate":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("server: chaos: bad rate %q (want 0..1)", val)
			}
			c.rate = f
		case "sites":
			for _, site := range strings.Split(val, "+") {
				site = strings.TrimSpace(site)
				if site == "all" {
					for _, s := range chaosSites {
						c.sites[s] = true
					}
					continue
				}
				if !knownChaosSite(site) {
					return nil, fmt.Errorf("server: chaos: unknown site %q (have %s)", site, strings.Join(chaosSites, ", "))
				}
				c.sites[site] = true
			}
		default:
			return nil, fmt.Errorf("server: chaos: unknown key %q", key)
		}
	}
	if len(c.sites) == 0 {
		return nil, fmt.Errorf("server: chaos: no sites armed (sites=...)")
	}
	return c, nil
}

func knownChaosSite(site string) bool {
	for _, s := range chaosSites {
		if s == site {
			return true
		}
	}
	return false
}

// SetObs routes injection counts into a metrics registry
// (server_chaos_injected_total plus a per-site counter).
func (c *Chaos) SetObs(reg *obs.Registry) {
	if c != nil {
		c.reg = reg
	}
}

// splitmix64 is the same cheap avalanche mix the campaign RNG family uses.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func siteHash(site string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// Hit reports whether this occurrence of the named site should fault, and
// advances the site's deterministic sequence. Nil-safe; a disarmed site
// consumes nothing.
func (c *Chaos) Hit(site string) bool {
	if c == nil || !c.sites[site] {
		return false
	}
	c.mu.Lock()
	n := c.counts[site]
	c.counts[site] = n + 1
	c.mu.Unlock()
	draw := splitmix64(c.seed ^ siteHash(site) ^ n)
	hit := float64(draw>>11)/float64(1<<53) < c.rate
	if hit && c.reg != nil {
		c.reg.Counter("server_chaos_injected_total").Inc()
		c.reg.Counter("server_chaos_" + strings.ReplaceAll(site, ".", "_") + "_total").Inc()
	}
	return hit
}

// Clock wraps a time source with the clock.freeze site: when the site
// fires, the next clockFreezeReads reads all observe the frozen instant —
// long enough for a fence lease to expire under the leader while it
// believes no time has passed.
func (c *Chaos) Clock(base func() time.Time) func() time.Time {
	if c == nil || !c.sites[ChaosClockFreeze] {
		return base
	}
	return func() time.Time {
		c.mu.Lock()
		if c.frozenReads > 0 {
			c.frozenReads--
			t := c.frozenAt
			c.mu.Unlock()
			return t
		}
		c.mu.Unlock()
		now := base()
		if c.Hit(ChaosClockFreeze) {
			c.mu.Lock()
			c.frozenAt = now
			c.frozenReads = clockFreezeReads
			c.mu.Unlock()
		}
		return now
	}
}

// Injections reports how many decisions each armed site has made (tests).
func (c *Chaos) Injections() map[string]uint64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}
