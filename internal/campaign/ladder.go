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
// and sweep entry after it.
//
// The chain belongs to the walk: tasks execute in (rank, site) order, and the
// feeder advances a rung of the walk's own to a task's site just before
// queueing the task for the workers (core.PrefixRunFrom) — from the later of
// the chain's head and the spine rung below the site, never from program
// entry once the spine reaches that far — and releases the rung it leaves
// behind. Consecutive rungs share every page the guest did not write between
// them.
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
// in-flight forks still hold, the ones jobs still queued for the workers hold
// (the feeder runs up to feedDepth jobs ahead of them), and the last rung of
// the walk before, which BitSweep hands to the next entry's ladder (every
// entry shares the task list, so it finds that rung again at its site). The
// ladder builds a rung only once at most one job per worker is queued (room,
// the pool's throttle), so queued jobs hold at most that many chain rungs the
// head has moved past. Which rung a task forks from depends on the task list
// and the Baseline alone, never on worker timing or on how far the feeder
// runs ahead. A prefix run cannot fail but on a simulator bug
// (Baseline.rungAt); one that does stops the walk and fails the campaign.
//
// campaign_snapshot_cache_bytes is what the walk's own resident rungs — the
// head, the carried rung and the rungs queued jobs hold — add beside the
// rungs they were advanced from (WorldSnapshot.FreshBytes); the spine is the
// Baseline's and not in it. Only the goroutine feeding a campaign's workers
// touches a ladder and its residency, so they carry no lock.
type ladder struct {
	base  *Baseline
	trace bool         // which of the Baseline's spines: Config.Trace
	hub   tainthub.Hub // Config.Hub, which prefix runs run on (Baseline.rungAt)
	reg   *obs.Registry
	res   *residency
	// room waits until the feeder may build a rung; false: the feed stopped.
	room func() bool
	// head is the chain's latest rung: the walk's own nearest snapshot at or
	// below the site of every task still to come on its rank. Nil before the
	// first.
	head heldRung
	// carried is the last rung of the walk before (BitSweep's previous entry),
	// resident until a task on its site takes it up as the head.
	carried heldRung

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

// newLadder starts a walk on base; carried is the last rung of the walk
// before over the same task list (ws nil: none), already charged to res.
func newLadder(base *Baseline, trace bool, hub tainthub.Hub, reg *obs.Registry, res *residency, room func() bool, carried heldRung) *ladder {
	return &ladder{
		base:    base,
		trace:   trace,
		hub:     hub,
		reg:     reg,
		res:     res,
		room:    room,
		carried: carried,
		hits:    reg.Counter("campaign_snapshot_cache_hits_total"),
		misses:  reg.Counter("campaign_snapshot_cache_misses_total"),
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
// site first when the next of rest, the tasks that follow tk in the walk,
// will read the rung too. seq is the feed sequence number of tk's job. An
// error is a prefix run's, to the site or to the spine position below it, or
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
	// fromEntry: nothing resident below the site, so the golden prefix is
	// replayed from program entry — by the prefix run below, or by the run.
	fromEntry := from == nil
	shared := len(rest) > 0 && rest[0].rank == tk.rank && rest[0].n < next
	if shared && (from == nil || from.Site() != site) {
		var own heldRung
		if c := l.carried; c.ws != nil && c.ws.Site() == site {
			own, l.carried, fromEntry = c, heldRung{}, false
		} else {
			if !l.room() {
				return nil, errStopped
			}
			l.res.settle()
			if own.ws, err = l.base.rungAt(from, site, l.trace, l.hub, l.reg); err != nil {
				return nil, err
			}
			l.res.charge(own.ws.FreshBytes())
		}
		if l.head.ws != nil {
			l.res.release(l.head)
		}
		l.head, ws = own, own.ws
	}
	if ws != nil && ws == l.head.ws {
		l.head.last = seq
	}
	if ws != nil && !fromEntry {
		l.hits.Inc()
	} else {
		l.misses.Inc()
	}
	return ws, nil
}

// end closes the walk: it returns the chain's head, which the next walk over
// the same task list carries, and releases the carried rung if no task took
// it up.
func (l *ladder) end() heldRung {
	if l.carried.ws != nil {
		l.res.release(l.carried)
	}
	return l.head
}

// residency is the heap the walks of one pool keep in rungs of their own: the
// chains' heads, a carried rung, and the rungs a head has moved past that
// jobs still queued for the workers fork from. Only the feeder touches it.
type residency struct {
	reg   *obs.Registry
	bytes int64
	// held are released rungs whose last job is still queued, in feed order.
	held []heldRung
	// queued reports whether the job of a feed sequence number has not
	// reached a worker yet.
	queued func(seq int) bool
}

func (r *residency) charge(n int64) {
	r.bytes += n
	r.reg.Gauge("campaign_snapshot_cache_bytes").Set(float64(r.bytes))
	r.reg.Gauge("campaign_snapshot_cache_bytes_high_water").SetMax(float64(r.bytes))
}

// release drops a rung the walk has moved past, or keeps it charged while a
// queued job holds it.
func (r *residency) release(h heldRung) {
	if r.queued(h.last) {
		r.held = append(r.held, h)
		return
	}
	r.charge(-h.ws.FreshBytes())
}

// settle drops the held rungs whose last job has reached a worker.
func (r *residency) settle() {
	n := 0
	for _, h := range r.held {
		if r.queued(h.last) {
			r.held[n] = h
			n++
		} else {
			r.charge(-h.ws.FreshBytes())
		}
	}
	clear(r.held[n:])
	r.held = r.held[:n]
}
