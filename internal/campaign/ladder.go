package campaign

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"chaser/internal/core"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
)

// The checkpoint ladder: every run of a campaign executes the golden run up
// to its injection site and only then diverges, so instead of replaying that
// prefix per run each task forks from a kept world snapshot — a rung — at or
// just below its site. Rungs come from two places.
//
// The spine is the Baseline's pinned rungs: the golden world at the 31 cuts
// k·total/32 of a targeted rank (Baseline.cuts), built once, as far as its
// sites reach, by the first campaign that reaches them and found resident by
// every shard and sweep after it (Baseline.spineRung).
//
// The chain belongs to the pool's one walk: tasks go out in (rank, site)
// order — a sweep hands each task to every entry in turn, back to back — and
// the feeder advances a rung of the ladder's own to a task's site just before
// queueing the task for the workers (core.PrefixRunFrom) — from the later of
// the chain's head and the spine rung below the site, never from program
// entry once the spine reaches that far. Consecutive rungs share every page
// the guest did not write between them.
//
// The reuse rule decides which: a site gets a rung of its own only when the
// next task handed out on its rank lands before the next cut. Either way the
// gap between the nearest kept snapshot and the site is executed once — by
// the prefix run that builds the rung, or by the task's own world on its way
// to the trigger — but a rung costs a session world and a snapshot on top, so
// it must have a second reader: the later task, which would otherwise replay
// the same gap again. A sweep entry's task is followed by the next entry's
// copy of it, so every site a sweep shares gets a rung and each gap is
// replayed once for the whole sweep. A pinned-site sweep and a dense campaign
// therefore chain rung by rung, and a shard with a site or none per stretch
// of the spine builds nothing at all.
//
// Every kept world leaves by one rule: when its last hold goes. The holds are
// a cut's pin, for the Baseline's life; the chain's head, which the ladder
// drops when it moves on and when the pool ends; and each queued job's, which
// the feeder takes before the send and the worker drops the moment it
// receives the job (a send Stop cancels drops it too). The ladder builds a
// rung only once at most one job per worker is sent and not yet taken up by
// a worker (room, the pool's throttle), so such jobs hold at most that many
// chain rungs the head has moved past. Which rung a task forks from depends on the task list and the
// Baseline alone, never on worker timing or on how far the feeder runs
// ahead. A prefix run cannot fail but on a simulator bug (Baseline.rungAt);
// one that does stops the walk and fails the campaign.
//
// One account counts them, each rung at what it keeps beside the rung it was
// advanced from (WorldSnapshot.FreshBytes), charged when built and uncharged
// when it leaves: a pin to its Baseline (SpineSize), a chain rung to
// campaign_snapshot_cache_bytes, which every pool on a registry adds to.

// spineIntervals is how many stretches a rank's golden run is cut into by the
// spine: a Baseline holds a world snapshot at each of the 31 cuts, and a run
// whose site shares its stretch with no other pending task forks from the cut
// below it. Finer cuts shorten the gap a run replays and leave fewer tasks
// sharing a stretch; what they cost is memory, a rung per cut. Measured at 8,
// 16 and 32 (docs/PERFORMANCE.md, "Fork, ladder and pinned rungs"): 32
// takes 9% off a run's CPU on small_campaign_mix
// against 8, and holds the resident set where 8 had it because a rung keeps
// little beyond the pages the guest changed and a process keeps one spine per
// app, not one per worker.
const spineIntervals = 32

// spineKey names one spine of a Baseline. A traced world carries timeline
// samples and flow-sequence numbers an untraced one does not, so a Baseline
// serving both kinds of campaign keeps two.
type spineKey struct {
	rank  int
	trace bool
}

// cutsOf is the spine's positions on a rank whose golden run executes the
// targeted ops total times: the sites k·total/spineIntervals, ascending, a
// site of zero and repeats (a total below spineIntervals) dropped.
func cutsOf(total uint64) []uint64 {
	var cuts []uint64
	for k := uint64(1); k < spineIntervals; k++ {
		n := k * total / spineIntervals
		if n > 0 && (len(cuts) == 0 || cuts[len(cuts)-1] != n) {
			cuts = append(cuts, n)
		}
	}
	return cuts
}

// rungAt advances from to site: the prefix run of the spine and of the chain
// alike. It replays the golden run under its budget, with no watchdog or
// events — the golden run had none — and reads of the spec only the target,
// ops and trace flag. It calls no hub, but runs on the campaign's hub so
// that it draws its session from those of the campaign's runs
// (core.PrefixRunFrom). The golden run finished within that budget and every
// site it reaches pauses, so only a simulator bug fails it: the campaign's
// failure.
func (b *Baseline) rungAt(from *core.WorldSnapshot, site core.ForkSite, trace bool, hub tainthub.Hub, reg *obs.Registry) (*core.WorldSnapshot, error) {
	reg.Counter("campaign_prefix_runs_total").Inc()
	ws, err := core.PrefixRunFrom(core.RunConfig{
		Prog:            b.key.prog,
		WorldSize:       b.world,
		BaseCache:       b.cache,
		Hub:             hub,
		MaxInstructions: b.maxInstr,
		NoFastPath:      b.key.noFastPath,
		Obs:             reg,
		Spec:            &core.Spec{Target: b.key.prog.Name, Ops: b.ops, Trace: trace},
	}, from, site)
	if err != nil {
		return nil, fmt.Errorf("campaign: prefix run to (rank %d, n %d): %w", site.Rank, site.N, err)
	}
	return ws, nil
}

// spineRung returns the pinned rung nearest below site (nil when the site lies
// below the first cut) — pinning the cuts up to the last at or below the site
// first, so a Baseline whose campaigns stay in the first stretch builds
// nothing — and the first cut above the site (next, MaxUint64 past the last).
//
// A cut is pinned once, under the Baseline's mutex, by the first campaign
// that reaches it — advanced from the pin before it or from head, the
// caller's own latest snapshot on the rank (nil: none), whichever is nearer,
// so a dense walk that has just executed a stretch does not replay it for the
// spine. A prefix run that fails leaves the pins as they were and fails the
// caller's campaign; a panic in one goes on to the caller.
func (b *Baseline) spineRung(site core.ForkSite, trace bool, hub tainthub.Hub, reg *obs.Registry, head *core.WorldSnapshot) (below *core.WorldSnapshot, next uint64, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := spineKey{site.Rank, trace}
	cuts := b.cuts[site.Rank]
	want := sort.Search(len(cuts), func(i int) bool { return cuts[i] > site.N })
	for n := len(b.spines[key]); n < want; n++ {
		at := core.ForkSite{Rank: site.Rank, N: cuts[n]}
		var from *core.WorldSnapshot
		if n > 0 {
			from = b.spines[key][n-1]
		}
		if head != nil && head.Site().N <= at.N && (from == nil || from.Site().N < head.Site().N) {
			from = head
		}
		ws, err := b.rungAt(from, at, trace, hub, reg)
		if err != nil {
			return nil, 0, err
		}
		b.spines[key] = append(b.spines[key], ws)
		b.pinned.Add(1)
		b.pinnedBytes.Add(ws.FreshBytes())
	}
	next = math.MaxUint64
	if want < len(cuts) {
		next = cuts[want]
	}
	if want > 0 {
		below = b.spines[key][want-1]
	}
	return below, next, nil
}

// SpineSize is what the Baseline's pins hold: their rungs, and the heap each
// keeps beside the rung it was advanced from (WorldSnapshot.FreshBytes: the
// pages the guest wrote in between and everything but pages). The process's
// registry reports the sum over its resident Baselines as
// campaign_spine_rungs and campaign_spine_bytes; a nil Baseline holds none.
func (b *Baseline) SpineSize() (rungs int, bytes int64) {
	if b == nil {
		return 0, 0
	}
	return int(b.pinned.Load()), b.pinnedBytes.Load()
}

// rung is a chain rung: a pool's kept world, held by the chain's head and by
// the jobs queued on it, and charged to cache while any hold is left. A
// pinned rung needs no count: it is a bare snapshot the Baseline keeps.
type rung struct {
	ws    *core.WorldSnapshot
	holds atomic.Int32
	cache *obs.Gauge
}

// hold takes a hold on r (nil: a pinned rung or none, which needs none).
func (r *rung) hold() {
	if r != nil {
		r.holds.Add(1)
	}
}

// drop lets go of a hold on r; the last one uncharges it.
func (r *rung) drop() {
	if r != nil && r.holds.Add(-1) == 0 {
		r.cache.Add(-float64(r.ws.FreshBytes()))
	}
}

// ladder is the chain of a pool's walk. Only the goroutine feeding the pool's
// workers touches it, so it carries no lock.
type ladder struct {
	base  *Baseline
	trace bool         // which of the Baseline's spines: Config.Trace
	hub   tainthub.Hub // Config.Hub, which prefix runs run on (Baseline.rungAt)
	reg   *obs.Registry
	// room waits until the feeder may build a rung; false: the feed stopped.
	room func() bool
	// head is the chain's latest rung: the ladder's own nearest snapshot at
	// or below the site of every task still to come on its rank. Nil before
	// the first and once the pool ended.
	head *rung

	cache, highWater *obs.Gauge
	// hits and misses count the tasks' lookups: a hit found a kept snapshot
	// at or below the task's site — the site's own rung, the chain's head or
	// a pinned rung — and a miss found none, so the golden prefix had to be
	// replayed from program entry. Prefix executions count in
	// campaign_prefix_runs_total (Baseline.rungAt).
	hits, misses *obs.Counter
}

// errStopped is rung's when room reports the feed stopped.
var errStopped = errors.New("campaign: feed stopped")

// newLadder starts the chain of a pool's walk on base.
func newLadder(base *Baseline, trace bool, hub tainthub.Hub, reg *obs.Registry, room func() bool) *ladder {
	return &ladder{
		base:      base,
		trace:     trace,
		hub:       hub,
		reg:       reg,
		room:      room,
		cache:     reg.Gauge("campaign_snapshot_cache_bytes"),
		highWater: reg.Gauge("campaign_snapshot_cache_bytes_high_water"),
		hits:      reg.Counter("campaign_snapshot_cache_hits_total"),
		misses:    reg.Counter("campaign_snapshot_cache_misses_total"),
	}
}

// sortBySite orders tasks for the ladder's walk: by rank, then site, ties in
// index order.
func sortBySite(tasks []task) {
	sort.SliceStable(tasks, func(i, j int) bool {
		if tasks[i].rank != tasks[j].rank {
			return tasks[i].rank < tasks[j].rank
		}
		return tasks[i].n < tasks[j].n
	})
}

// rung returns the snapshot tk forks from — nil: none below its site, the run
// replays the prefix from program entry itself — and the chain rung that is
// (nil: a pinned rung or none), advancing the chain to tk's site first when
// the next of rest, the tasks handed out after tk, will read the rung too. An
// error is a prefix run's, to the site or to the cut below it, or
// errStopped. Tasks must arrive in sortBySite order.
func (l *ladder) rung(tk task, rest []task) (ws *core.WorldSnapshot, held *rung, err error) {
	site := core.ForkSite{Rank: tk.rank, N: tk.n}
	var from *core.WorldSnapshot // the chain's head, unless the walk moved on to tk's rank
	if l.head != nil && l.head.ws.Site().Rank == tk.rank {
		from = l.head.ws
	}
	below, next, err := l.base.spineRung(site, l.trace, l.hub, l.reg, from)
	if err != nil {
		return nil, nil, err
	}
	if below != nil && (from == nil || from.Site().N < below.Site().N) {
		from = below
	}
	ws = from
	shared := len(rest) > 0 && rest[0].rank == tk.rank && rest[0].n < next
	if shared && (from == nil || from.Site() != site) {
		if !l.room() {
			return nil, nil, errStopped
		}
		if ws, err = l.base.rungAt(from, site, l.trace, l.hub, l.reg); err != nil {
			return nil, nil, err
		}
		r := &rung{ws: ws, cache: l.cache}
		r.holds.Store(1)
		l.cache.Add(float64(ws.FreshBytes()))
		l.highWater.SetMax(l.cache.Value())
		l.end()
		l.head = r
	}
	if l.head != nil && ws == l.head.ws {
		held = l.head
	}
	// from nil: nothing was kept below the site, so the golden prefix is
	// replayed from program entry — by the prefix run above, or by the run.
	if from != nil {
		l.hits.Inc()
	} else {
		l.misses.Inc()
	}
	return ws, held, nil
}

// end drops the head's hold: the ladder moved on, or the pool ended.
func (l *ladder) end() {
	l.head.drop()
	l.head = nil
}
