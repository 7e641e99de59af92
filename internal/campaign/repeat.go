package campaign

import (
	"sync"

	"chaser/internal/core"
	"chaser/internal/isa"
	"chaser/internal/vm"
)

// Repeats: a run is a function of the world it forks from and the fault its
// injector draws, and a pinned site holds few faults — one flipped bit of a
// k-operand instruction is one of at most 64·k — so a campaign's tasks repeat
// earlier tasks' faults at the same site. Each (rank, site, fault) executes
// once per window; every later task with it takes the first run's outcome and
// builds no world.
//
// The key is computed in the feeder, from the rung the ladder hands the task:
// only a rung at the task's own site is paused in front of the instruction the
// fault hits, so only such a task has one (the others execute). At that
// instruction the key is core.PlanOperandFault, the default injector's own
// sequence of draws — equal plans, equal faults. Tasks arrive in site order,
// so the feeder keeps the current site's keys only.
//
// A first run whose outcome is not its fault's alone is not reused, and its
// repeats execute: one that errored, crashed the simulator, was stopped by the
// wall-clock watchdog or whose hub interaction degraded (reusable). A campaign
// with a RunObserver dedupes nothing: the observer is promised every run's
// result.

// repeats is the feeder's index of the first runs at the current site, of
// every walk the pool feeds: a sweep's entries take each task back to back,
// so the index keeps the site's faults of every bit count. Masks of different
// bit counts never collide (core.RandomBitMask sets exactly bits bits), and
// entries of one bit count share their first runs.
type repeats struct {
	prog   *isa.Program
	site   core.ForkSite
	firsts map[core.OperandFault]*firstRun
}

func newRepeats(prog *isa.Program) *repeats {
	return &repeats{prog: prog, firsts: make(map[core.OperandFault]*firstRun)}
}

// of returns the first run of tk's fault at its site, as walk w flips it, and
// whether that is an earlier task's (tk repeats it) or tk's own; nil when tk
// has no key: ws, the rung tk forks from, is not at tk's site.
func (r *repeats) of(tk task, w *walk, ws *core.WorldSnapshot) (first *firstRun, repeat bool) {
	site := core.ForkSite{Rank: tk.rank, N: tk.n}
	if ws == nil || ws.Site() != site {
		return nil, false
	}
	ins, ok := r.prog.InstrAt(ws.PC(tk.rank))
	if !ok {
		return nil, false
	}
	if site != r.site {
		r.site = site
		clear(r.firsts)
	}
	key := core.PlanOperandFault(tk.seed, tk.rank, w.bits, ins)
	if f := r.firsts[key]; f != nil {
		return f, true
	}
	f := &firstRun{w: w, idx: tk.idx}
	r.firsts[key] = f
	return f, false
}

// reusable reports whether the tasks repeating a run's fault may take its
// outcome, given its result (nil: the simulator crashed): whether the outcome
// is its fault's alone. A watchdog that stopped any rank makes it the wall
// clock's — classified TermTimeout, or no-injection when it fired before the
// fault — and a degraded hub dropped taint another run may keep.
func reusable(res *core.RunResult) bool {
	if res == nil || res.HubErr != nil {
		return false
	}
	for _, t := range res.Terms {
		if t.Reason == vm.ReasonTimeout {
			return false
		}
	}
	return true
}

// firstRun is the first task of a fault at a site, as the tasks repeating it
// find it in the worker pool.
type firstRun struct {
	w   *walk // the walk whose outcome slots hold the run's
	idx int   // the task's index: its outcome's slot
	mu  sync.Mutex
	// done is set once the run's outcome is in its slot, and reuse says
	// whether the repeats may take it.
	done, reuse bool
	// waiting are the repeats handed to a worker before the run was done; the
	// run's own worker finishes them.
	waiting []job
}

// join hands the first run a repeat. While the run executes it queues the
// repeat (queued), so no worker waits for another; once the run is done it
// reports whether the repeat may take the outcome in the run's slot — if not,
// the repeat executes itself.
func (f *firstRun) join(rp job) (reuse, queued bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.done {
		f.waiting = append(f.waiting, rp)
		return false, true
	}
	return f.reuse, false
}

// finish marks the first run done — its outcome in its slot, or dropped
// (reuse false) — and returns the repeats that queued before it.
func (f *firstRun) finish(reuse bool) []job {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.done, f.reuse = true, reuse
	w := f.waiting
	f.waiting = nil
	return w
}
