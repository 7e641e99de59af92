package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/isa"
	"chaser/internal/tainthub"
	"chaser/internal/vm"
)

// golden is an app's golden run and, per rank, how many targeted
// instructions it executes.
type golden struct {
	app   apps.App
	execs []uint64
}

func goldenOf(t testing.TB, name string) golden {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Golden(app.Prog, app.WorldSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := golden{app: app, execs: make([]uint64, app.WorldSize)}
	for r := range g.execs {
		for _, op := range app.DefaultOps {
			g.execs[r] += res.Counters[r].PerOp[op]
		}
	}
	return g
}

// config is a run of the app with a 1-bit fault at n on rank.
func (g golden) config(rank int, n uint64, seed int64, trace bool) RunConfig {
	return RunConfig{Prog: g.app.Prog, WorldSize: g.app.WorldSize, Spec: &Spec{
		Target: g.app.Name, Ops: g.app.DefaultOps, TargetRank: rank,
		Cond: Deterministic{N: n}, Bits: 1, Seed: seed, Trace: trace,
	}}
}

// chain is the golden world of rank at the positions a campaign's spine
// cuts (k·total/32), each rung advanced from the one before.
func (g golden) chain(t testing.TB, rank int, trace bool) (pos []uint64, rungs []*WorldSnapshot) {
	t.Helper()
	cfg := g.config(rank, 1, 0, trace)
	var from *WorldSnapshot
	for k := uint64(1); k < 32; k++ {
		n := k * g.execs[rank] / 32
		if n == 0 || len(pos) > 0 && pos[len(pos)-1] == n {
			continue
		}
		ws, err := PrefixRunFrom(cfg, from, ForkSite{Rank: rank, N: n})
		if err != nil {
			t.Fatal(err)
		}
		pos, rungs, from = append(pos, n), append(rungs, ws), ws
	}
	return pos, rungs
}

// paused is the loan of a run of cfg whose target pauses at pauses, from ws
// (program entry when nil).
func paused(t testing.TB, cfg RunConfig, ws *WorldSnapshot, pauses ...uint64) Loan {
	t.Helper()
	spec := *cfg.Spec
	spec.pauses = pauses
	cfg.Spec = &spec
	l, err := Lend(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// pausedAt reports whether the lent world is stopped by its target's pause.
func (l Loan) pausedAt(rank int) bool { return l.res.Terms[rank].Reason == vm.ReasonPaused }

// TestResumedRunMatchesUnpaused: a run paused before, at and after its
// trigger and resumed in place after each pause is the run that never
// paused — terminations, outputs, consoles, counters less the block
// statistics, records, the propagation log byte for byte and the hub
// statistics — on lud, bfs, matvec and clamr_mpi, 40 seeds each, traced and
// untraced. At each pause the target's count is one short of the pause (the
// paused instruction counts when it runs), and every pause the run reaches
// pauses it: those up to the targeted instructions the unpaused run
// executed, and one more when its last one ended the rank.
func TestResumedRunMatchesUnpaused(t *testing.T) {
	for _, name := range []string{"lud", "bfs", "matvec", "clamr_mpi"} {
		g := goldenOf(t, name)
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				var total, after int
				for seed := int64(0); seed < 40; seed++ {
					rng := rand.New(rand.NewSource(seed))
					rank := rng.Intn(g.app.WorldSize)
					execs := g.execs[rank]
					n := 1 + uint64(rng.Int63n(int64(execs)))
					pauses := []uint64{max(n/2, 1), n, n + 1}
					for k := uint64(1); k <= 3; k++ {
						pauses = append(pauses, n+1+k*(execs-n)/4)
					}
					slices.Sort(pauses)
					pauses = slices.Compact(pauses)
					cfg := g.config(rank, n, seed, trace)
					label := fmt.Sprintf("seed %d (rank %d, n %d, pauses %v)", seed, rank, n, pauses)
					want, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					l := paused(t, cfg, nil, pauses...)
					hit := 0
					for ; l.pausedAt(rank); hit++ {
						if got := l.s.ch.armed[rank].execCount; got != pauses[hit]-1 {
							t.Fatalf("%s: pause %d: the target counted %d", label, hit, got)
						}
						if pauses[hit] > n {
							after++
						}
						if err := l.resume(); err != nil {
							t.Fatal(err)
						}
					}
					total += hit
					var execd uint64
					for _, op := range g.app.DefaultOps {
						execd += want.Counters[rank].PerOp[op]
					}
					reach := func(e uint64) int { n, _ := slices.BinarySearch(pauses, e+1); return n }
					if hit < reach(execd) || hit > reach(execd+1) || !want.Injected() {
						t.Fatalf("%s: %d pauses for %d targeted executions, injected %v", label, hit, execd, want.Injected())
					}
					got := l.Own()
					sameRun(t, label, want, got)
					if trace {
						sameLog(t, label, want, got)
					}
				}
				t.Logf("%d pauses, %d after the fault", total, after)
				if after == 0 {
					t.Error("no run paused after its fault")
				}
			})
		}
	}
}

// TestResumedLegWaitsOverFlights: over a hub that starts flights, a run
// that pauses before its trigger resumes into a leg whose receives wait for
// the hub, and is still the run that never paused — whose receives did not
// wait, and which went again because the hub answered its polls with other
// masks than were published.
func TestResumedLegWaitsOverFlights(t *testing.T) {
	g := goldenOf(t, "clamr_mpi")
	crossed := 0
	for seed := int64(0); seed < 8; seed++ {
		rank := int(seed) % g.app.WorldSize
		n := g.execs[rank]/4 + uint64(seed)*97
		cfg := g.config(rank, n, seed, true)
		cfg.Hub = lazyHub{&faultyHub{Local: tainthub.NewLocal(), flipPoll: true}}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Hub = lazyHub{&faultyHub{Local: tainthub.NewLocal(), flipPoll: true}}
		l := paused(t, cfg, nil, n/3, n-1)
		for l.pausedAt(rank) {
			if err := l.resume(); err != nil {
				t.Fatal(err)
			}
		}
		got := l.Own()
		sameRun(t, fmt.Sprintf("seed %d", seed), want, got)
		crossed += len(got.Trace.CrossRank())
	}
	if crossed == 0 {
		t.Fatal("no taint crossed ranks: the resumed legs' receives were never asked")
	}
}

// TestPauseAfterTriggerRefusedOverFlights: over a hub that starts flights a
// run that took taint early can only go again from its start, which a
// resumed leg cannot; so a pause at or after the first count the condition
// may fire is refused there, and a pause before it, or any pause over a hub
// that does not start flights, is not. A prefix run never fires, so it
// pauses anywhere.
func TestPauseAfterTriggerRefusedOverFlights(t *testing.T) {
	g := goldenOf(t, "clamr_mpi")
	cfg := g.config(1, 500, 1, true)
	for _, tc := range []struct {
		hub    tainthub.Hub
		pauses []uint64
		cond   Condition
		refuse bool
	}{
		{lazyHub{tainthub.NewLocal()}, []uint64{100, 500}, nil, true},
		{lazyHub{tainthub.NewLocal()}, []uint64{100, 700}, nil, true},
		{tainthub.WithNamespace(lazyHub{tainthub.NewLocal()}, 3), []uint64{600}, nil, true},
		{lazyHub{tainthub.NewLocal()}, []uint64{100}, Probabilistic{P: 0.001}, true},
		{lazyHub{tainthub.NewLocal()}, []uint64{100, 499}, nil, false},
		{tainthub.NewLocal(), []uint64{100, 700}, nil, false},
	} {
		c := cfg
		c.Hub = tc.hub
		if tc.cond != nil {
			spec := *c.Spec
			spec.Cond = tc.cond
			c.Spec = &spec
		}
		spec := *c.Spec
		spec.pauses = tc.pauses
		c.Spec = &spec
		l, err := Lend(c, nil)
		if err == nil {
			l.Return()
		}
		if refused := err != nil && strings.Contains(err.Error(), "before the trigger"); refused != tc.refuse {
			t.Errorf("hub %T, pauses %v, %v: refused %v (%v)", tc.hub, tc.pauses, c.Spec.Cond, refused, err)
		}
	}
	cfg.Hub = lazyHub{tainthub.NewLocal()}
	if _, err := PrefixRun(cfg, ForkSite{Rank: 1, N: 700}); err != nil {
		t.Errorf("a prefix run past the trigger over a hub that starts flights: %v", err)
	}
}

// TestLoanHeldSnapshot: a lent world is captured through its loan, which
// holds its session whether or not the session may go back to the pool. A
// rung captured from a loan and returned outlives the session's next runs,
// which reuse everything its world held; one captured from a loan whose
// session may not go back stays out of the pool when the loan is returned.
func TestLoanHeldSnapshot(t *testing.T) {
	// A session put back sits in its P's pool slot: one P finds it again.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := goldenOf(t, "clamr_mpi")
	rank := 2
	site := ForkSite{Rank: rank, N: g.execs[rank] / 3}
	cfg := g.config(rank, g.execs[rank]/2, 5, true)
	for _, quiet := range []bool{true, false} {
		built := countNewArenas(t)
		l := paused(t, cfg, nil, site.N)
		l.quiet = quiet
		ws, err := l.capture(site)
		if err != nil {
			t.Fatal(err)
		}
		l.Return()
		before := built.Load()
		for i := 0; i < 10; i++ {
			if _, err := Run(g.config(rank, uint64(100+i), int64(i), true)); err != nil {
				t.Fatal(err)
			}
		}
		// The race detector's pool drops some of what is put back.
		if rebuilt := built.Load() - before; quiet && rebuilt != 0 && !raceEnabled || !quiet && rebuilt == 0 {
			t.Errorf("quiet %v: the next runs built %d sessions", quiet, rebuilt)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunForked(cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, fmt.Sprintf("quiet %v", quiet), want, got)
	}
}

// TestDiffOfARungWithItselfIsEmpty: every rung of traced and untraced chains
// of lud and clamr_mpi is Diff-empty against itself, and against a rung at
// another position it is not.
func TestDiffOfARungWithItselfIsEmpty(t *testing.T) {
	for _, name := range []string{"lud", "clamr_mpi"} {
		g := goldenOf(t, name)
		for _, trace := range []bool{false, true} {
			_, rungs := g.chain(t, g.app.WorldSize-1, trace)
			for i, ws := range rungs {
				if d := Diff(ws, ws); len(d) != 0 {
					t.Errorf("%s trace=%v: rung %d against itself: %+v", name, trace, i, d)
				}
				if i > 0 && len(Diff(rungs[i-1], ws)) == 0 {
					t.Errorf("%s trace=%v: rungs %d and %d do not differ", name, trace, i-1, i)
				}
			}
		}
	}
}

// TestDiffComparesOnlyWhatEitherRungWrote: two adjacent rungs of a lud chain
// share every page the guest did not write in between, and Diff compares
// byte by byte only the pages whose pointers differ — the count
// TestCompareCountsPagesWhosePointersDiffer pins for a machine — never more
// than two from-entry twins of the rungs, which share none, and none for a
// twin against itself. Each rung is Diff-empty against its twin.
func TestDiffComparesOnlyWhatEitherRungWrote(t *testing.T) {
	g := goldenOf(t, "lud")
	pos, rungs := g.chain(t, 0, false)
	twins := make([]*WorldSnapshot, len(pos))
	for i := range pos {
		var err error
		if twins[i], err = PrefixRun(g.config(0, 1, 0, false), ForkSite{Rank: 0, N: pos[i]}); err != nil {
			t.Fatal(err)
		}
		if ds, _ := diff(rungs[i], twins[i]); len(ds) != 0 {
			t.Fatalf("rung %d against its from-entry twin: %+v", i, ds)
		}
	}
	var chained, apart int
	for i := 1; i < len(rungs); i++ {
		_, c := diff(rungs[i-1], rungs[i])
		_, a := diff(twins[i-1], twins[i])
		_, self := diff(twins[i], twins[i])
		if c == 0 || c > a || self != 0 {
			t.Errorf("rungs %d-%d: compared %d pages, their twins %d, a twin against itself %d", i-1, i, c, a, self)
		}
		chained, apart = chained+c, apart+a
	}
	t.Logf("%d rungs: %d pages compared byte by byte along the chain, %d between their twins", len(rungs), chained, apart)
}

// TestDiffFindsAPlantedByte: one byte of memory and one of its taint,
// changed in a lent copy of a rung, are reported as exactly those bytes, on
// that rank, in that region, and nothing else.
func TestDiffFindsAPlantedByte(t *testing.T) {
	g := goldenOf(t, "clamr_mpi")
	rank := 1
	_, rungs := g.chain(t, rank, true)
	rung := rungs[len(rungs)/2]
	const other = 3
	addr := isa.StackTop - 100
	l := paused(t, g.config(rank, rung.site.N, 1, true), rung, rung.site.N)
	m := l.s.world.Machine(other)
	v, err := m.Mem.Read8(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Write8(addr, v^0x40); err != nil {
		t.Fatal(err)
	}
	m.Shadow.SetMemMask8(addr+5, 0x02)
	planted, err := l.capture(rung.site)
	l.Return()
	if err != nil {
		t.Fatal(err)
	}
	want := []Difference{
		{Rank: other, What: "mem", Addr: addr, Len: 1, Region: "stack"},
		{Rank: other, What: "shadow", Addr: addr + 5, Len: 1, Region: "stack"},
	}
	if got := Diff(rung, planted); !slices.Equal(got, want) {
		t.Errorf("Diff = %+v, want %+v", got, want)
	}
	if got := Diff(planted, rung); !slices.Equal(got, want) {
		t.Errorf("Diff the other way = %+v, want %+v", got, want)
	}
}

// taintOnly are the differences a traced fault that changed nothing but
// taint leaves: the taint itself and its history.
var taintOnly = []string{"shadow", "shadow regs", "tainted accesses", "timeline"}

// TestIdentityFaultDiffsOnlyInTaint: a fault that corrupts nothing (the
// IdentityInjector), paused at every later position of the golden chain and
// resumed, is Diff-empty at each against the golden rung untraced; traced,
// it differs in taint alone.
func TestIdentityFaultDiffsOnlyInTaint(t *testing.T) {
	for _, name := range []string{"lud", "bfs", "clamr_mpi"} {
		g := goldenOf(t, name)
		rank := g.app.WorldSize - 1
		for _, trace := range []bool{false, true} {
			pos, rungs := g.chain(t, rank, trace)
			tainted := 0
			for _, at := range []int{2, len(pos) / 2, len(pos) - 3} {
				n := pos[at] + 17
				cfg := g.config(rank, n, 9, trace)
				cfg.Spec.Inj = IdentityInjector{Bits: 8}
				l := paused(t, cfg, rungs[at], pos[at+1:]...)
				for i := at + 1; l.pausedAt(rank); i++ {
					ws, err := l.capture(ForkSite{Rank: rank, N: pos[i]})
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range Diff(rungs[i], ws) {
						if !trace || !slices.Contains(taintOnly, d.What) {
							t.Errorf("%s trace=%v, fault at %d, pause at %d: %+v", name, trace, n, pos[i], d)
						}
						tainted++
					}
					if err := l.resume(); err != nil {
						t.Fatal(err)
					}
				}
				if !l.res.Injected() {
					t.Fatalf("%s: no fault at %d", name, n)
				}
				l.Return()
			}
			if trace && tainted == 0 {
				t.Errorf("%s: no traced identity fault left taint at a later position", name)
			}
		}
	}
}
