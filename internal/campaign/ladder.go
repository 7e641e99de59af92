package campaign

import (
	"sort"

	"chaser/internal/core"
	"chaser/internal/obs"
)

// The checkpoint ladder: every run of a campaign executes the golden run up
// to its injection site and only then diverges, so instead of replaying that
// prefix per run each task forks from a world snapshot — a rung — at or just
// below its site. Rungs come from two places.
//
// The spine (spine.go) belongs to the Baseline: the golden world at the 31
// sites k·total/32 of a targeted rank, built once, as far as its sites reach,
// by the first campaign that reaches them and found resident by every shard
// and sweep entry after it.
//
// The chain belongs to the walk: tasks execute in (rank, site) order, and the
// feeder advances a rung of the walk's own to a task's site just before
// handing the task to a worker (core.PrefixRunFrom) — from the later of the
// chain's head and the spine rung below the site, never from program entry
// once the spine reaches that far — and releases the rung it leaves behind.
// Consecutive rungs share every page the guest did not write between them.
//
// The reuse rule decides which: a site gets a rung of its own only when a
// later pending task on its rank lands before the next spine position.
// Either way the gap between the nearest resident snapshot and the site is
// executed once — by the prefix run that builds the rung, or by the task's
// own world on its way to the trigger — but a rung costs a session world and
// a snapshot on top, so it must have a second reader: the later task, which
// would otherwise replay the same gap again. A pinned-site sweep and a dense
// campaign therefore chain rung by rung, and a shard with a site or none per
// stretch of the spine builds nothing at all.
//
// At any moment the resident rungs are the spine, the chain's head, the ones
// in-flight forks still hold, and the last rung of an earlier walk over the
// same snapCache (which is the whole chain of a pinned-site campaign: BitSweep
// entries find it again). Which rung a task forks from depends on the task
// list and the Baseline alone, never on worker timing.
//
// A site whose prefix run fails (the watchdog, a simulator panic) leaves the
// chain where it was: its tasks fork from the nearest rung below and replay
// the executions in between, or run from scratch when there is none. Every
// path is bitwise identical to a from-scratch run.
type ladder struct {
	snaps   *snapCache
	base    *Baseline
	trace   bool // which of the Baseline's spines: Config.Trace
	reg     *obs.Registry
	runConf func(task) core.RunConfig
	// head is the chain's latest rung: the walk's own nearest snapshot at or
	// below the site of every task still to come on its rank. Nil before the
	// first.
	head *core.WorldSnapshot

	// hits and misses count the tasks' lookups: a hit found a resident
	// snapshot at or below the task's site — the site's own rung, the chain's
	// head or a spine rung — and a miss found none, so the golden prefix had
	// to be replayed from program entry. prefix counts the prefix executions
	// themselves, the chain's here and the spine's in Baseline.spineRung.
	hits, misses, prefix *obs.Counter
}

func newLadder(snaps *snapCache, base *Baseline, trace bool, reg *obs.Registry, runConf func(task) core.RunConfig) *ladder {
	return &ladder{
		snaps:   snaps,
		base:    base,
		trace:   trace,
		reg:     reg,
		runConf: runConf,
		hits:    reg.Counter("campaign_snapshot_cache_hits_total"),
		misses:  reg.Counter("campaign_snapshot_cache_misses_total"),
		prefix:  reg.Counter("campaign_prefix_runs_total"),
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
// replays the prefix from program entry itself — advancing the chain to tk's
// site first when after, the task that follows tk in the walk (nil at the
// end), will read the rung too. fellBack reports a run that could not have
// the snapshot the ladder planned for it: the prefix run to its site, or to
// the spine position below it, failed. Tasks must arrive in sortBySite order.
func (l *ladder) rung(tk task, after *task) (ws *core.WorldSnapshot, fellBack bool) {
	site := core.ForkSite{Rank: tk.rank, N: tk.n}
	from := l.head
	if from != nil && from.Site().Rank != tk.rank {
		from = nil // the walk moved on to the next rank: a new chain
	}
	below, floor, next := l.base.spineRung(site, l.trace, l.reg, from)
	if below != nil && (from == nil || from.Site().N < below.Site().N) {
		from = below
	}
	ws = from
	// fromEntry: nothing resident below the site, so the golden prefix is
	// replayed from program entry — by the prefix run below, or by the run.
	fromEntry := from == nil
	fellBack = floor > 0 && (from == nil || from.Site().N < floor)
	shared := after != nil && after.rank == tk.rank && after.n < next
	if shared && (from == nil || from.Site() != site) {
		built := false
		own, err := l.snaps.get(site, func() (*core.WorldSnapshot, error) {
			built = true
			l.prefix.Inc()
			return prefixRun(l.runConf(tk), from, site)
		})
		if err != nil {
			fellBack = true // no rung at the site: the one below serves, if any
		} else {
			if l.head != nil && l.head.Site() != site {
				l.snaps.release(l.head.Site())
			}
			l.head, ws, fellBack = own, own, false
			fromEntry = fromEntry && built
		}
	}
	if ws != nil && !fromEntry {
		l.hits.Inc()
	} else {
		l.misses.Inc()
	}
	return ws, fellBack
}
