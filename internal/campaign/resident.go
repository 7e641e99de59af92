package campaign

import (
	"errors"
	"fmt"
	"sync"

	"chaser/internal/isa"
	"chaser/internal/obs"
)

// maxResident bounds the process's resident Baselines. The six bundled apps
// fit with room to spare; a process that compiles programs of its own — a
// test binary does, once per test — would otherwise keep a golden run's
// cache and a spine for every program it ever ran a campaign on. The least
// recently used one goes.
const maxResident = 8

// residents is the process's campaign Baselines: Run and BitSweep — and with
// them every chaserd worker's shards — take theirs from here. A Baseline
// depends on baselineKey alone, so a golden run happens once per key per
// process, whichever campaign comes first, and every campaign after it forks
// from the spine the ones before it left. The first campaign of a key
// prepares its Baseline; campaigns of the key that arrive meanwhile wait for
// it. A campaign that fails — its Config refused, its golden run or a run
// failed, interrupted, or panicking — drops the entry it ran on, if the
// registry still holds that one, and the next campaign of the key prepares a
// fresh one, while campaigns already running on the old one finish there.
var residents = registry{entries: make(map[baselineKey]*resident)}

// baselineKey is what Baseline.check compares: the program, the world size,
// the targeted ops in order, the instruction budget as given and the two
// ablation switches. The seed, bits, trace flag, target rank and hub are the
// campaign's own.
type baselineKey struct {
	prog          *isa.Program
	world         int
	ops           string // one byte an op
	budget        uint64
	noFastPath    bool
	noSharedCache bool
}

// String names the key in an error: the program by address, which tells
// apart two compilations of one source, and the ops by number.
func (k baselineKey) String() string {
	return fmt.Sprintf("{program %p, %d ranks, ops %v, budget %d, NoFastPath=%v, NoSharedCache=%v}",
		k.prog, k.world, []byte(k.ops), k.budget, k.noFastPath, k.noSharedCache)
}

func keyOf(cfg Config) baselineKey {
	ops := make([]byte, len(cfg.Ops))
	for i, op := range cfg.Ops {
		ops[i] = byte(op)
	}
	return baselineKey{
		prog:          cfg.Prog,
		world:         worldSize(cfg.WorldSize),
		ops:           string(ops),
		budget:        cfg.MaxInstructions,
		noFastPath:    cfg.NoFastPath,
		noSharedCache: cfg.NoSharedCache,
	}
}

type registry struct {
	mu      sync.Mutex
	clock   uint64 // ticks once per acquire
	entries map[baselineKey]*resident
}

// resident is one key's entry. ready is closed once base and err are set;
// used is the registry's clock at the entry's last acquire, under its mu.
type resident struct {
	key   baselineKey
	ready chan struct{}
	base  *Baseline
	err   error
	used  uint64
}

// acquire returns cfg's resident Baseline, preparing it when the registry
// holds none for cfg's key (a miss: Prepare counts the golden run) and
// waiting for it when another campaign is preparing it (a hit, counted in
// campaign_baseline_hits_total). It refuses a target rank the Baseline cannot
// draw a site for as Prepare does. An entry that fails to prepare — or whose
// preparation panics, the panic going on to the caller — is dropped, and so
// is one that refuses cfg.
func (r *registry) acquire(cfg Config) (*resident, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	k := keyOf(cfg)
	r.mu.Lock()
	r.clock++
	e := r.entries[k]
	hit := e != nil
	if !hit {
		e = &resident{key: k, ready: make(chan struct{}), err: errors.New("campaign: preparing the baseline panicked")}
		r.entries[k] = e
	}
	e.used = r.clock
	r.evict()
	r.mu.Unlock()
	if hit {
		cfg.Obs.Counter("campaign_baseline_hits_total").Inc()
		<-e.ready
	} else {
		func() {
			defer close(e.ready)
			defer func() {
				if e.err != nil {
					r.drop(e)
				}
			}()
			e.base, e.err = prepare(cfg)
		}()
	}
	err := e.err
	if err == nil {
		err = e.base.checkTarget(cfg.TargetRank)
	}
	if err != nil {
		r.drop(e)
		r.reportSpines(cfg.Obs)
		return nil, err
	}
	return e, nil
}

// evict drops the least recently used entries past maxResident. Campaigns
// running on an evicted Baseline keep it until they finish. r.mu is held.
func (r *registry) evict() {
	for len(r.entries) > maxResident {
		var lru *resident
		for _, e := range r.entries {
			if lru == nil || e.used < lru.used {
				lru = e
			}
		}
		delete(r.entries, lru.key)
	}
}

// run runs campaign on e's Baseline and drops e if the campaign returns an
// error or panics. Afterwards the spine gauges read what the process's
// Baselines hold.
func (r *registry) run(e *resident, reg *obs.Registry, campaign func(*Baseline) error) error {
	ok := false
	defer func() {
		if !ok {
			r.drop(e)
		}
		r.reportSpines(reg)
	}()
	err := campaign(e.base)
	ok = err == nil
	return err
}

// drop removes e if the registry still holds it.
func (r *registry) drop(e *resident) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries[e.key] == e {
		delete(r.entries, e.key)
	}
}

// reportSpines sets campaign_spine_rungs and campaign_spine_bytes to what the
// resident Baselines' spines hold, counted once for the process: a dropped
// or evicted Baseline is not in them.
func (r *registry) reportSpines(reg *obs.Registry) {
	if reg == nil {
		return
	}
	var rungs int
	var bytes int64
	r.mu.Lock()
	for _, e := range r.entries {
		select {
		case <-e.ready:
			n, sz := e.base.SpineSize()
			rungs, bytes = rungs+n, bytes+sz
		default:
		}
	}
	r.mu.Unlock()
	reg.Gauge("campaign_spine_rungs").Set(float64(rungs))
	reg.Gauge("campaign_spine_bytes").Set(float64(bytes))
}
