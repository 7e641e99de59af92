package tcg

import (
	"sync"
	"sync/atomic"

	"chaser/internal/isa"
)

// BaseCache is a shared, concurrency-safe cache of clean (uninstrumented)
// translation blocks for one program. It plays the role of QEMU's shared code
// cache for a fault-injection campaign: the guest program is identical across
// every rank of every run, so its clean translations are too, and paying for
// them once per campaign instead of once per machine removes ~100% of the
// redundant translation work.
//
// Blocks stored in a BaseCache are immutable after publication: the engine
// keeps its block-chaining state in per-machine tables (see internal/vm), so
// a published *TB is never written again and may be executed by any number of
// machines concurrently. Blocks a hook instrumented never enter the base
// cache — they live in each Translator's private overlay, which is the only
// state AddHook/SetProbe/Flush invalidate. Blocks a Probe instrumented are
// kept beside the clean ones, keyed by the probe: every run of a campaign
// arms the same probe, so the block at its injection site is translated once
// too. Nothing is evicted. A cache lives as long as its owner keeps the
// campaign baseline it belongs to — one campaign, one bit sweep, or a chaserd
// worker, which keeps an app's for every campaign of that app it serves — and
// the guest's text bounds it whichever: a block starts at an instruction, and
// an app's campaigns arm one probe, so there is at most one clean and one
// instrumented block per instruction. What is actually held is the blocks the
// golden run entered, the few only a faulty run enters, and an instrumented
// block per targeted instruction a fault site has ever fallen on (a fork
// resumes at its site, in the middle of a block): matvec holds 51 blocks after
// its golden run, 111 after ten 40-run campaigns and 178 after three hundred,
// of 365 instructions, 175 of them targeted. A cache shared by runs that arm
// different op sets or helper numbers holds one set of instrumented copies
// per distinct probe; BaseStats.Probed counts them.
//
// The cache fills lazily: any translator that produces a clean or probed
// translation publishes it, so a campaign's golden run warms the cache for
// every injection run that follows.
type BaseCache struct {
	prog   *isa.Program
	noOpt  bool
	noFuse bool

	mu     sync.RWMutex
	blocks map[uint64]*TB
	probed map[probedKey]*TB

	hits   atomic.Uint64
	misses atomic.Uint64
}

// probedKey names the block at pc as instrumented by probe.
type probedKey struct {
	pc    uint64
	probe Probe
}

// BaseStats is a snapshot of shared-cache activity.
type BaseStats struct {
	Hits   uint64 // lookups that found their block, clean or probed
	Misses uint64 // lookups that found nothing
	Blocks uint64 // clean blocks currently published
	Probed uint64 // probe-instrumented blocks currently published, over all probes
}

// NewBaseCache creates an empty shared cache for prog.
func NewBaseCache(prog *isa.Program) *BaseCache {
	return &BaseCache{prog: prog, blocks: make(map[uint64]*TB), probed: make(map[probedKey]*TB)}
}

// SetOptimizer toggles the peephole optimizer for translations published
// into this cache (on by default). Only ablation benchmarks need this; it
// must be set before any translator uses the cache.
func (c *BaseCache) SetOptimizer(on bool) { c.noOpt = !on }

// SetFusion toggles the micro-op fusion pass for translations published into
// this cache (on by default); like SetOptimizer it must be set before any
// translator uses the cache, so every sharer agrees on the block shape.
func (c *BaseCache) SetFusion(on bool) { c.noFuse = !on }

// Prog returns the program this cache translates.
func (c *BaseCache) Prog() *isa.Program { return c.prog }

// Len returns the number of published clean blocks.
func (c *BaseCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.blocks)
}

// Stats returns a snapshot of cache activity.
func (c *BaseCache) Stats() BaseStats {
	c.mu.RLock()
	blocks, probed := len(c.blocks), len(c.probed)
	c.mu.RUnlock()
	return BaseStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Blocks: uint64(blocks),
		Probed: uint64(probed),
	}
}

// lookup returns the published clean block at pc, if any. Translators count
// the hit or miss (Translator.countBase) once they know whether a probed
// block served the lookup instead.
func (c *BaseCache) lookup(pc uint64) (*TB, bool) {
	c.mu.RLock()
	tb, ok := c.blocks[pc]
	c.mu.RUnlock()
	return tb, ok
}

// lookupProbed returns the published block at pc as instrumented by probe.
func (c *BaseCache) lookupProbed(pc uint64, probe Probe) (*TB, bool) {
	c.mu.RLock()
	tb, ok := c.probed[probedKey{pc, probe}]
	c.mu.RUnlock()
	return tb, ok
}

// insert publishes a clean translation and returns the canonical block for
// pc: the first writer wins, so concurrent machines that raced on the same
// miss all converge on one shared *TB.
func (c *BaseCache) insert(pc uint64, tb *TB) *TB {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.blocks[pc]; ok {
		return prev
	}
	c.blocks[pc] = tb
	return tb
}

// insertProbed publishes a probe's translation of the block at pc, first
// writer winning as in insert.
func (c *BaseCache) insertProbed(pc uint64, probe Probe, tb *TB) *TB {
	key := probedKey{pc, probe}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.probed[key]; ok {
		return prev
	}
	c.probed[key] = tb
	return tb
}
