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
// in-flight forks still hold, and the last rung of the walk before, which
// BitSweep hands to the next entry's ladder (every entry shares the task list,
// so it finds that rung again at its site). Which rung a task forks from
// depends on the task list and the Baseline alone, never on worker timing. A
// prefix run cannot fail but on a simulator bug (Baseline.rungAt); one that
// does stops the walk and fails the campaign.
//
// campaign_snapshot_cache_bytes is what the walk's own resident rungs add
// beside the rungs they were advanced from (WorldSnapshot.FreshBytes); the
// spine is the Baseline's and not in it. Only the goroutine feeding a
// campaign's workers touches a ladder, so it carries no lock.
type ladder struct {
	base  *Baseline
	trace bool // which of the Baseline's spines: Config.Trace
	reg   *obs.Registry
	// head is the chain's latest rung: the walk's own nearest snapshot at or
	// below the site of every task still to come on its rank. Nil before the
	// first.
	head *core.WorldSnapshot
	// carried is the last rung of the walk before (BitSweep's previous entry),
	// resident until a task on its site takes it up as the head.
	carried *core.WorldSnapshot
	bytes   int64

	// hits and misses count the tasks' lookups: a hit found a resident
	// snapshot at or below the task's site — the site's own rung, the chain's
	// head or a spine rung — and a miss found none, so the golden prefix had
	// to be replayed from program entry. Prefix executions count in
	// campaign_prefix_runs_total (Baseline.rungAt).
	hits, misses *obs.Counter
}

// newLadder starts a walk on base; carried is the last rung of the walk
// before over the same task list (nil: none), still charged to reg's gauge.
func newLadder(base *Baseline, trace bool, reg *obs.Registry, carried *core.WorldSnapshot) *ladder {
	l := &ladder{
		base:    base,
		trace:   trace,
		reg:     reg,
		carried: carried,
		hits:    reg.Counter("campaign_snapshot_cache_hits_total"),
		misses:  reg.Counter("campaign_snapshot_cache_misses_total"),
	}
	if carried != nil {
		l.bytes = carried.FreshBytes()
	}
	return l
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
// site first when the next of rest, the tasks that follow tk in the walk,
// will read the rung too. An error is a prefix run's, to the site or to the
// spine position below it. Tasks must arrive in sortBySite order.
func (l *ladder) rung(tk task, rest []task) (*core.WorldSnapshot, error) {
	site := core.ForkSite{Rank: tk.rank, N: tk.n}
	from := l.head
	if from != nil && from.Site().Rank != tk.rank {
		from = nil // the walk moved on to the next rank: a new chain
	}
	below, next, err := l.base.spineRung(site, l.trace, l.reg, from)
	if err != nil {
		return nil, err
	}
	if below != nil && (from == nil || from.Site().N < below.Site().N) {
		from = below
	}
	ws := from
	// fromEntry: nothing resident below the site, so the golden prefix is
	// replayed from program entry — by the prefix run below, or by the run.
	fromEntry := from == nil
	shared := len(rest) > 0 && rest[0].rank == tk.rank && rest[0].n < next
	if shared && (from == nil || from.Site() != site) {
		if l.carried != nil && l.carried.Site() == site {
			ws, l.carried, fromEntry = l.carried, nil, false
		} else {
			if ws, err = l.base.rungAt(from, site, l.trace, l.reg); err != nil {
				return nil, err
			}
			l.charge(ws.FreshBytes())
		}
		if l.head != nil {
			l.charge(-l.head.FreshBytes())
		}
		l.head = ws
	}
	if ws != nil && !fromEntry {
		l.hits.Inc()
	} else {
		l.misses.Inc()
	}
	return ws, nil
}

func (l *ladder) charge(n int64) {
	l.bytes += n
	l.reg.Gauge("campaign_snapshot_cache_bytes").Set(float64(l.bytes))
	l.reg.Gauge("campaign_snapshot_cache_bytes_high_water").SetMax(float64(l.bytes))
}
