package campaign

import (
	"fmt"
	"math"
	"sort"

	"chaser/internal/core"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
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

// spineKey names one spine of a Baseline. A traced world carries timeline
// samples and flow-sequence numbers an untraced one does not, so a Baseline
// serving both kinds of campaign keeps two.
type spineKey struct {
	rank  int
	trace bool
}

// spine is the kept checkpoints of one targeted rank: the golden world paused
// at the sites k·total/spineIntervals, each advanced from the one before, and
// built in order: rungs[i] is the world at pos[i].
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

// spineRung returns the kept rung nearest below site (nil when the site lies
// below the first position) — extending the spine to the last position at or
// below the site first, so a Baseline whose campaigns stay in the first
// stretch builds nothing — and the first position above the site (next,
// MaxUint64 past the last).
//
// A position is built once, under the Baseline's mutex, by the first campaign
// that reaches it — advanced from the rung before it or from head, the
// caller's own latest snapshot on the rank (nil: none), whichever is nearer,
// so a dense walk that has just executed a stretch does not replay it for the
// spine. A prefix run that fails leaves the spine as it was and fails the
// caller's campaign; a panic in one goes on to the caller.
func (b *Baseline) spineRung(site core.ForkSite, trace bool, hub tainthub.Hub, reg *obs.Registry, head *core.WorldSnapshot) (below *core.WorldSnapshot, next uint64, err error) {
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
		var from *core.WorldSnapshot
		if n := len(sp.rungs); n > 0 {
			from = sp.rungs[n-1]
		}
		if head != nil && head.Site().N <= at.N && (from == nil || from.Site().N < head.Site().N) {
			from = head
		}
		ws, err := b.rungAt(from, at, trace, hub, reg)
		if err != nil {
			return nil, 0, err
		}
		sp.rungs = append(sp.rungs, ws)
	}
	next = math.MaxUint64
	if want < len(sp.pos) {
		next = sp.pos[want]
	}
	if want > 0 {
		below = sp.rungs[want-1]
	}
	return below, next, nil
}

// SpineSize is what the Baseline's spines hold: their rungs, and the heap
// each keeps beside the rung it was advanced from (WorldSnapshot.FreshBytes:
// the pages the guest wrote in between and everything but pages). The
// process's registry reports the sum over its resident Baselines as
// campaign_spine_rungs and campaign_spine_bytes; a nil Baseline holds none.
func (b *Baseline) SpineSize() (rungs int, bytes int64) {
	if b == nil {
		return 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, sp := range b.spines {
		rungs += len(sp.rungs)
		for _, ws := range sp.rungs {
			bytes += ws.FreshBytes()
		}
	}
	return rungs, bytes
}
