package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestConvergenceAtTheFirstSpinePosition measures how many faults a run
// could stop for at the first position of the golden chain after its
// fault: over 1,000 random 1-bit traced runs each of lud and bfs, each
// forked from the rung below its fault and paused at the first rung above,
// it logs the share of runs whose world there is the golden rung's but for
// taint (guest), also with no taint left (shadow empty; only the taint's
// history — timeline, tainted accesses — differs), and Diff-empty, each with
// the share of all guest instructions that come after that point. It
// asserts only what holds by construction: a run whose guest state is the
// golden rung's ends as the golden run does.
func TestConvergenceAtTheFirstSpinePosition(t *testing.T) {
	for _, name := range []string{"lud", "bfs"} {
		g := goldenOf(t, name)
		want, err := Golden(g.app.Prog, g.app.WorldSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		pos, rungs := g.chain(t, 0, true)
		const runs = 1000
		var guest, clean, empty int
		var all, guestAfter, cleanAfter, emptyAfter uint64
		for seed := int64(0); seed < runs; seed++ {
			n := 1 + uint64(rand.New(rand.NewSource(seed)).Int63n(int64(g.execs[0])))
			at := sort.Search(len(pos), func(i int) bool { return pos[i] > n })
			var from *WorldSnapshot
			if at > 0 {
				from = rungs[at-1]
			}
			l := paused(t, g.config(0, n, seed, true), from, pos[at:min(at+1, len(pos))]...)
			var ds []Difference
			var before uint64
			stopped := l.pausedAt(0)
			if stopped {
				ws, err := l.capture(ForkSite{Rank: 0, N: pos[at]})
				if err != nil {
					t.Fatal(err)
				}
				ds, before = Diff(rungs[at], ws), ws.machines[0].Instructions()
				if err := l.resume(); err != nil {
					t.Fatal(err)
				}
			}
			res := l.Own()
			total := res.Counters[0].Instructions
			all += total
			if !stopped {
				continue
			}
			after := total - before
			only := func(whats ...string) bool {
				return !slices.ContainsFunc(ds, func(d Difference) bool { return !slices.Contains(whats, d.What) })
			}
			if only(taintOnly...) {
				guest++
				guestAfter += after
				if res.Terms[0] != want.Terms[0] || string(res.Outputs[0]) != string(want.Outputs[0]) {
					t.Errorf("%s seed %d: converged at %d but ended %s", name, seed, pos[at], res.Terms[0])
				}
			}
			if only("tainted accesses", "timeline") {
				clean++
				cleanAfter += after
			}
			if len(ds) == 0 {
				empty++
				emptyAfter += after
			}
		}
		pct := func(a, b uint64) float64 { return 100 * float64(a) / float64(b) }
		t.Logf("%s: %d runs, %d guest instructions; at the first rung after the fault, guest state converged in %.1f%% of runs (%.1f%% of instructions after it), with no taint left %.1f%% (%.1f%%), Diff-empty %.1f%% (%.1f%%)",
			name, runs, all, pct(uint64(guest), runs), pct(guestAfter, all), pct(uint64(clean), runs), pct(cleanAfter, all),
			pct(uint64(empty), runs), pct(emptyAfter, all))
	}
}
