package campaign

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"chaser/internal/core"
	"chaser/internal/obs"
)

// spineIntervals is how many stretches a rank's golden run is cut into by the
// spine: a Baseline holds a world snapshot at each of the 31 cuts, and a run
// whose site shares its stretch with no other pending task forks from the cut
// below it. Finer cuts shorten the gap a run replays and leave fewer tasks
// sharing a stretch; what they cost is memory, a rung per cut. Measured at 8,
// 16 and 32 (docs/PERFORMANCE.md, "Rungs that outlive the shard" and "One
// spine per process"): 32 takes 9% off a run's CPU on small_campaign_mix
// against 8, and holds the resident set where 8 had it because a rung keeps
// little beyond the pages the guest changed and a process keeps one spine per
// app, not one per worker.
const spineIntervals = 32

// errPrefixPanic marks a prefix run the simulator panicked in — a tool
// failure, not a property of the guest at that site.
var errPrefixPanic = errors.New("campaign: prefix run panicked")

// prefixRun is core.PrefixRunFrom with a simulator panic isolated as an error:
// the prefix replays a stretch of the golden run, which completed, and a panic
// here is as isolated as one inside an injection run.
func prefixRun(rc core.RunConfig, from *core.WorldSnapshot, site core.ForkSite) (ws *core.WorldSnapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			ws, err = nil, fmt.Errorf("%w: %v", errPrefixPanic, r)
		}
	}()
	return core.PrefixRunFrom(rc, from, site)
}

// spineKey names one spine of a Baseline. A traced world carries timeline
// samples and flow-sequence numbers an untraced one does not, so a Baseline
// serving both kinds of campaign keeps two.
type spineKey struct {
	rank  int
	trace bool
}

// spine is the kept checkpoints of one targeted rank: the golden world paused
// at the sites k·total/spineIntervals, each advanced from the one before.
// Positions are decided in order and never again: rungs[i] is the world at
// pos[i], or nil when the prefix run to it failed.
type spine struct {
	pos   []uint64 // ascending; a site of zero and repeats (a total below spineIntervals) dropped
	rungs []*core.WorldSnapshot
}

func newSpine(total uint64) *spine {
	sp := &spine{}
	for k := uint64(1); k < spineIntervals; k++ {
		n := k * total / spineIntervals
		if n > 0 && (len(sp.pos) == 0 || sp.pos[len(sp.pos)-1] != n) {
			sp.pos = append(sp.pos, n)
		}
	}
	return sp
}

// last returns the latest rung among the first n positions, nil when none of
// them could pause.
func (sp *spine) last(n int) *core.WorldSnapshot {
	for i := min(n, len(sp.rungs)) - 1; i >= 0; i-- {
		if sp.rungs[i] != nil {
			return sp.rungs[i]
		}
	}
	return nil
}

// spineRung returns the kept rung nearest below site — extending the spine to
// the last position at or below the site first, so a Baseline whose campaigns
// stay in the first stretch builds nothing — with that position (floor, 0
// when the site lies below the first) and the first position above the site
// (next, MaxUint64 past the last). below is nil, or older than floor, when a
// position could not be reached.
//
// A position is built once, under the Baseline's mutex, by the first campaign
// that reaches it — advanced from the rung before it or from head, the
// caller's own latest snapshot on the rank (nil: none), whichever is nearer,
// so a dense walk that has just executed a stretch does not replay it for the
// spine; its prefix run counts in reg's campaign_prefix_runs_total.
// It runs without the campaign's RunTimeout — it replays the golden run,
// which is never subject to one, and what it decides holds for every campaign
// after this one — so a failure is a function of the guest and the position is
// skipped for good. Only a simulator panic is not remembered: the position
// stays undecided and the next campaign tries again.
func (b *Baseline) spineRung(site core.ForkSite, trace bool, reg *obs.Registry, head *core.WorldSnapshot) (below *core.WorldSnapshot, floor, next uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := spineKey{site.Rank, trace}
	sp := b.spines[key]
	if sp == nil {
		if b.spines == nil {
			b.spines = make(map[spineKey]*spine)
		}
		sp = newSpine(b.totals[site.Rank])
		b.spines[key] = sp
	}
	want := sort.Search(len(sp.pos), func(i int) bool { return sp.pos[i] > site.N })
	for len(sp.rungs) < want {
		at := core.ForkSite{Rank: site.Rank, N: sp.pos[len(sp.rungs)]}
		from := sp.last(len(sp.rungs))
		if head != nil && head.Site().N <= at.N && (from == nil || from.Site().N < head.Site().N) {
			from = head
		}
		reg.Counter("campaign_prefix_runs_total").Inc()
		ws, err := prefixRun(core.RunConfig{
			Prog:            b.prog,
			WorldSize:       b.world,
			BaseCache:       b.cache,
			MaxInstructions: b.maxInstr,
			NoFastPath:      b.noFastPath,
			Obs:             reg,
			Spec:            &core.Spec{Target: b.prog.Name, Ops: b.ops, Trace: trace},
		}, from, at)
		if errors.Is(err, errPrefixPanic) {
			break
		}
		sp.rungs = append(sp.rungs, ws)
		if ws == nil {
			reg.Counter("campaign_spine_positions_skipped_total").Inc()
		}
	}
	next = math.MaxUint64
	if want < len(sp.pos) {
		next = sp.pos[want]
	}
	if want > 0 {
		floor = sp.pos[want-1]
	}
	return sp.last(want), floor, next
}

// SpineSize is what the Baseline's spines hold: their rungs, and the heap
// each keeps beside the rung it was advanced from (WorldSnapshot.FreshBytes:
// the pages the guest wrote in between and everything but pages). Whoever
// keeps Baselines reports the sum over them as campaign_spine_rungs and
// campaign_spine_bytes (chaserd does, once for the process); a nil Baseline
// holds none.
func (b *Baseline) SpineSize() (rungs int, bytes int64) {
	if b == nil {
		return 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, sp := range b.spines {
		for _, ws := range sp.rungs {
			if ws != nil {
				rungs++
				bytes += ws.FreshBytes()
			}
		}
	}
	return rungs, bytes
}
