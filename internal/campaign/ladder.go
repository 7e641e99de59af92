package campaign

import (
	"errors"
	"sort"

	"chaser/internal/core"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
)

// The checkpoint ladder: every run of a campaign executes the golden run up
// to its injection site and only then diverges, so instead of replaying that
// prefix per run each task forks from a world snapshot — a rung — at or just
// below its site. Rungs come from two places.
//
// The spine (spine.go) belongs to the Baseline: the golden world at the 31
// sites k·total/32 of a targeted rank, built once, as far as its sites reach,
// by the first campaign that reaches them and found resident by every shard
// and sweep after it.
//
// The chain belongs to the pool's one walk: tasks go out in (rank, site)
// order — a sweep hands each task to every entry in turn, back to back — and
// the feeder advances a rung of the ladder's own to a task's site just before
// queueing the task for the workers (core.PrefixRunFrom) — from the later of
// the chain's head and the spine rung below the site, never from program
// entry once the spine reaches that far — and releases the rung it leaves
// behind. Consecutive rungs share every page the guest did not write between
// them.
//
// The reuse rule decides which: a site gets a rung of its own only when the
// next task handed out on its rank lands before the next spine position.
// Either way the gap between the nearest resident snapshot and the site is
// executed once — by the prefix run that builds the rung, or by the task's
// own world on its way to the trigger — but a rung costs a session world and
// a snapshot on top, so it must have a second reader: the later task, which
// would otherwise replay the same gap again. A sweep entry's task is followed
// by the next entry's copy of it, so every site a sweep shares gets a rung
// and each gap is replayed once for the whole sweep. A pinned-site sweep and
// a dense campaign therefore chain rung by rung, and a shard with a site or
// none per stretch of the spine builds nothing at all.
//
// At any moment the resident rungs are the spine, the chain's head, the ones
// in-flight forks still hold, and the ones jobs still queued for the workers
// hold (the feeder runs up to feedDepth jobs ahead of them). The ladder owns
// its head and the rungs queued jobs hold, under one release rule: a rung the
// head has moved past leaves once the last job holding it has reached a
// worker. It builds a rung only once at most one job per worker is queued
// (room, the pool's throttle), so queued jobs hold at most that many chain
// rungs the head has moved past. Which rung a task forks from depends on the
// task list and the Baseline alone, never on worker timing or on how far the
// feeder runs ahead. A prefix run cannot fail but on a simulator bug
// (Baseline.rungAt); one that does stops the walk and fails the campaign.
//
// campaign_snapshot_cache_bytes is what the ladder's resident rungs — the
// head and the rungs queued jobs hold — add beside the rungs they were
// advanced from (WorldSnapshot.FreshBytes); the spine is the Baseline's and
// not in it. Only the goroutine feeding a pool's workers touches its ladder,
// so it carries no lock.
type ladder struct {
	base  *Baseline
	trace bool         // which of the Baseline's spines: Config.Trace
	hub   tainthub.Hub // Config.Hub, which prefix runs run on (Baseline.rungAt)
	reg   *obs.Registry
	// room waits until the feeder may build a rung; false: the feed stopped.
	room func() bool
	// queued reports whether the job of a feed sequence number has not
	// reached a worker yet.
	queued func(seq int) bool
	// head is the chain's latest rung: the ladder's own nearest snapshot at
	// or below the site of every task still to come on its rank. Nil before
	// the first.
	head heldRung
	// held are rungs the head has moved past whose last job is still queued,
	// in feed order; bytes is what the head and they keep.
	held  []heldRung
	bytes int64

	// hits and misses count the tasks' lookups: a hit found a resident
	// snapshot at or below the task's site — the site's own rung, the chain's
	// head or a spine rung — and a miss found none, so the golden prefix had
	// to be replayed from program entry. Prefix executions count in
	// campaign_prefix_runs_total (Baseline.rungAt).
	hits, misses *obs.Counter
}

// heldRung is a chain rung (nil: none) and the feed sequence number of the
// last job handed it, which says whether a queued job still holds it.
type heldRung struct {
	ws   *core.WorldSnapshot
	last int
}

// errStopped is rung's when room reports the feed stopped.
var errStopped = errors.New("campaign: feed stopped")

// newLadder starts the chain of a pool's walk on base.
func newLadder(base *Baseline, trace bool, hub tainthub.Hub, reg *obs.Registry, queued func(seq int) bool, room func() bool) *ladder {
	return &ladder{
		base:   base,
		trace:  trace,
		hub:    hub,
		reg:    reg,
		room:   room,
		queued: queued,
		hits:   reg.Counter("campaign_snapshot_cache_hits_total"),
		misses: reg.Counter("campaign_snapshot_cache_misses_total"),
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

// headOn is the chain's head if it is on rank (nil: none, or the walk moved on
// to rank and starts a new chain).
func (l *ladder) headOn(rank int) *core.WorldSnapshot {
	if l.head.ws != nil && l.head.ws.Site().Rank == rank {
		return l.head.ws
	}
	return nil
}

// rung returns the snapshot tk forks from — nil: none below its site, the run
// replays the prefix from program entry itself — advancing the chain to tk's
// site first when the next of rest, the tasks handed out after tk, will read
// the rung too. seq is the feed sequence number of tk's job. An error is a
// prefix run's, to the site or to the spine position below it, or
// errStopped. Tasks must arrive in sortBySite order.
func (l *ladder) rung(tk task, rest []task, seq int) (*core.WorldSnapshot, error) {
	site := core.ForkSite{Rank: tk.rank, N: tk.n}
	from := l.headOn(tk.rank)
	below, next, err := l.base.spineRung(site, l.trace, l.hub, l.reg, from)
	if err != nil {
		return nil, err
	}
	if below != nil && (from == nil || from.Site().N < below.Site().N) {
		from = below
	}
	ws := from
	shared := len(rest) > 0 && rest[0].rank == tk.rank && rest[0].n < next
	if shared && (from == nil || from.Site() != site) {
		if !l.room() {
			return nil, errStopped
		}
		l.settle()
		if ws, err = l.base.rungAt(from, site, l.trace, l.hub, l.reg); err != nil {
			return nil, err
		}
		l.charge(ws.FreshBytes())
		if l.head.ws != nil {
			l.release(l.head)
		}
		l.head = heldRung{ws: ws}
	}
	if ws != nil && ws == l.head.ws {
		l.head.last = seq
	}
	// from nil: nothing was resident below the site, so the golden prefix is
	// replayed from program entry — by the prefix run above, or by the run.
	if from != nil {
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

// release lets go of a rung the head has moved past: it leaves at once, or
// once the last job holding it has reached a worker (settle).
func (l *ladder) release(h heldRung) {
	if l.queued(h.last) {
		l.held = append(l.held, h)
		return
	}
	l.charge(-h.ws.FreshBytes())
}

// settle drops the held rungs whose last job has reached a worker.
func (l *ladder) settle() {
	n := 0
	for _, h := range l.held {
		if l.queued(h.last) {
			l.held[n] = h
			n++
		} else {
			l.charge(-h.ws.FreshBytes())
		}
	}
	clear(l.held[n:])
	l.held = l.held[:n]
}
