package campaign

import (
	"fmt"
	"sort"

	"chaser/internal/core"
	"chaser/internal/obs"
)

// The checkpoint ladder: every run of a campaign executes the golden run up
// to its injection site and only then diverges, so instead of replaying that
// prefix per run the campaign walks the golden run once per targeted rank,
// pausing at every site its tasks name, and each task forks from the world
// snapshot — the rung — taken at its own site. The walk is chained: a rung
// is advanced from the previous one (core.PrefixRunFrom), so all rungs
// together cost one pass over the golden run, and consecutive rungs share
// every page the guest did not write between them.
//
// The plan is the task list itself: tasks execute in (rank, site) order, the
// feeder advances the chain to a task's site just before handing the task to
// a worker, and releases the rung it leaves behind — no pending task is at
// or above it and below the new one. At any moment the resident rungs are
// the chain's head, the ones in-flight forks still hold, and the last rung of
// an earlier walk over the same snapCache (which is the whole ladder of a
// pinned-site campaign: BitSweep entries find it again). Which rung a task
// forks from depends on the task list alone, never on worker timing.
//
// A site that cannot pause (pause-dirty MPI progress, a rank already gone,
// the watchdog) leaves the chain where it was: its tasks fork from the
// previous rung and replay the executions in between, or run from scratch
// when there is none. Every path is bitwise identical to a from-scratch run.
type ladder struct {
	snaps   *snapCache
	runConf func(task) core.RunConfig
	// head is the chain's latest rung: the nearest snapshot at or below the
	// site of every task still to come on its rank. Nil before the first.
	head *core.WorldSnapshot

	// hits and misses count the tasks' lookups: a hit found a resident
	// snapshot at or below the task's site — the site's own rung, or the
	// chain's head to advance from — and a miss found none, so the golden
	// prefix had to be replayed from program entry. prefix counts the prefix
	// executions themselves, chained or not.
	hits, misses, prefix *obs.Counter
}

func newLadder(snaps *snapCache, reg *obs.Registry, runConf func(task) core.RunConfig) *ladder {
	return &ladder{
		snaps:   snaps,
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

// rung returns the snapshot tk forks from, advancing the chain to tk's site
// first; nil when no rung at or below the site could be built. Tasks must
// arrive in sortBySite order.
func (l *ladder) rung(tk task) *core.WorldSnapshot {
	site := core.ForkSite{Rank: tk.rank, N: tk.n}
	from := l.head
	if from != nil && from.Site().Rank != tk.rank {
		from = nil // the walk moved on to the next rank: a new chain
	}
	fromEntry := false
	ws, err := l.snaps.get(site, func() (ws *core.WorldSnapshot, err error) {
		fromEntry = from == nil
		l.prefix.Inc()
		// The prefix replays a stretch of the golden run, which completed; a
		// simulator panic here is as isolated as one inside an injection run.
		defer func() {
			if r := recover(); r != nil {
				ws, err = nil, fmt.Errorf("campaign: prefix run panicked: %v", r)
			}
		}()
		return core.PrefixRunFrom(l.runConf(tk), from, site)
	})
	if err != nil {
		ws = from // the site will not pause: the previous rung serves, if any
	} else {
		if l.head != nil && l.head.Site() != site {
			l.snaps.release(l.head.Site())
		}
		l.head = ws
	}
	if ws != nil && !fromEntry {
		l.hits.Inc()
	} else {
		l.misses.Inc()
	}
	return ws
}
