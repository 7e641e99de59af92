package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/memtest"
	"chaser/internal/mpi"
	"chaser/internal/obs"
	"chaser/internal/tcg"
)

// sweepFork builds what one run of the benchmark's lud_site_sweep workload
// starts from: LUD at order 48, the rung at the 730,000th execution of lud's
// default ops on rank 0, and the traced run configuration a campaign hands
// RunForked for that site (the seed is the run's own).
func sweepFork(tb testing.TB) (func(seed int64) RunConfig, *WorldSnapshot) {
	tb.Helper()
	app, err := apps.ByName("lud")
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := lang.Compile(apps.LUDProgram(48))
	if err != nil {
		tb.Fatal(err)
	}
	cache := tcg.NewBaseCache(prog)
	conf := func(seed int64) RunConfig {
		return RunConfig{
			Prog: prog, WorldSize: 1, BaseCache: cache,
			Spec: &Spec{
				Target: prog.Name, Ops: app.DefaultOps, TargetRank: 0,
				Cond: Deterministic{N: 730_000}, Bits: 1, Seed: seed, Trace: true,
			},
		}
	}
	ws, err := PrefixRun(conf(0), ForkSite{Rank: 0, N: 730_000})
	if err != nil {
		tb.Fatal(err)
	}
	return conf, ws
}

// TestForkedRunAllocBudget is the guard on what a run costs before it
// executes. Most faults at the sweep's site kill the guest within thirteen
// instructions, so the median forked run is the fixed cost alone: what the
// caller keeps — the result, which RunForked copies out of the session's,
// and the collector. The machine, its pages, shadow, translator and helpers,
// the platform, the Chaser with its injector streams and access-log
// appenders, the world shell, the spec copy and the result the session lends
// come from the run's recycled session, and a crash's text is formatted only
// when it is read. It allocated 119 KB when every rank's mailbox was buffered
// for 1,024 messages and every fork retranslated the block at its site,
// 19,664 B while every run built its machine afresh and seeded math/rand's
// 607-word table, 5,904 B while every run built its platform, Chaser and
// world, and 2,152 B (29 allocations) while every run built its result,
// translator, injector stream and spec copy; a tail that runs on allocates
// with its length (log chunks, the result's copy of the output) on top. No
// fork after the campaign's first translates anything.
func TestForkedRunAllocBudget(t *testing.T) {
	budget := uint64(1056)
	// maxAllocs bounds the allocations of a forked run that ends at its
	// first instruction (seed 1's): the result's six and the collector.
	const maxAllocs = 7
	if raceEnabled {
		// Under the race detector a quarter of the runs build their session
		// and are left out below, at random, so the median of the others can
		// land among the runs that logged a tainted access (about 3.5 KB).
		budget = 6 << 10
	}
	conf, ws := sweepFork(t)
	size, allocs := forkedRunCost(t, conf, func(cfg RunConfig) error {
		_, err := RunForked(cfg, ws)
		return err
	})
	if size > budget {
		t.Errorf("the median forked run allocates %d B, budget %d", size, budget)
	}
	if allocs > maxAllocs {
		t.Errorf("a forked run that ends at its first instruction makes %.0f allocations, budget %d", allocs, maxAllocs)
	}

	reg := obs.NewRegistry()
	for seed := int64(1); seed <= 31; seed++ {
		cfg := conf(seed)
		cfg.Obs = reg
		if _, err := RunForked(cfg, ws); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.Counter("tcg_translations_total").Value(); n != 0 {
		t.Errorf("31 forks translated %d blocks, want 0", n)
	}
	if n := reg.Counter("tcg_base_misses_total").Value(); n != 0 {
		t.Errorf("31 forks missed the base cache %d times, want 0", n)
	}
}

// TestLentForkedRunAllocBudget is that guard in a campaign's shape: the run
// keeps no access log, and its result is lent (Lend), read and returned, as a
// campaign worker's is. The caller keeps nothing of such a run, and its
// session keeps everything it uses, so the median run allocates nothing: what
// is left is what a tail that runs on allocates (pages, shadow, output).
func TestLentForkedRunAllocBudget(t *testing.T) {
	budget := uint64(0)
	const maxAllocs = 0
	if raceEnabled {
		budget = 4 << 10
	}
	conf, ws := sweepFork(t)
	logless := func(seed int64) RunConfig {
		cfg := conf(seed)
		cfg.NoAccessLog = true
		return cfg
	}
	size, allocs := forkedRunCost(t, logless, func(cfg RunConfig) error {
		l, err := Lend(cfg, ws)
		if err == nil {
			l.Return()
		}
		return err
	})
	if size > budget {
		t.Errorf("the median lent forked run allocates %d B, budget %d", size, budget)
	}
	if allocs > maxAllocs {
		t.Errorf("a lent forked run that ends at its first instruction makes %.0f allocations, budget %d", allocs, maxAllocs)
	}
}

// forkedRunCost measures run, a forked run of the sweep's configuration conf,
// on a recycled session: the median bytes of seeds 1 to 31, leaving out the
// runs that built their session, and the allocations of seed 1's, which ends
// at its first instruction (not measured under the race detector).
func forkedRunCost(t *testing.T, conf func(seed int64) RunConfig, run func(RunConfig) error) (median uint64, allocs float64) {
	t.Helper()
	// Each ReadMemStats stops the world, after which the test goroutine may
	// resume on another P, whose share of the session pool is empty: on one P
	// every run takes back the session the run before it put back, as a
	// campaign worker mostly does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	made := countNewArenas(t)
	if err := run(conf(0)); err != nil { // the campaign's first fork fills the cache
		t.Fatal(err)
	}
	var sizes []uint64
	fresh := 0
	for seed := int64(1); seed <= 31; seed++ {
		cfg := conf(seed)
		sessions := made.Load()
		var err error
		size := memtest.Allocated(func() { err = run(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		if made.Load() != sessions {
			// The race detector's sync.Pool drops a quarter of what it is
			// given, at random: this run found no session and built one
			// (about 10 KB more), which is not what the budget is about.
			fresh++
			continue
		}
		sizes = append(sizes, size)
	}
	if len(sizes) < 16 {
		t.Fatalf("%d of 31 runs built a session afresh", fresh)
	}
	slices.Sort(sizes)
	median = sizes[len(sizes)/2]
	t.Logf("a forked run on a recycled session allocates %d B (median of %d seeds, %d to %d; %d runs built their session)",
		median, len(sizes), sizes[0], sizes[len(sizes)-1], fresh)
	if !raceEnabled {
		cfg := conf(1)
		allocs = testing.AllocsPerRun(100, func() {
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("a forked run that ends at its first instruction makes %.0f allocations", allocs)
	}
	return median, allocs
}

// armedWorld builds the world of a run the way execute does, stopping short
// of running it, so a test can look at the armed machines.
func armedWorld(t *testing.T, cfg RunConfig, ws *WorldSnapshot) (*Chaser, *mpi.World) {
	t.Helper()
	size := max(cfg.WorldSize, 1)
	s := arenas.New().(*session)
	ch, err := s.open(cfg, size)
	if err != nil {
		t.Fatal(err)
	}
	spec := *cfg.Spec
	if ws != nil {
		spec.resume = ws.resume
	}
	ch.Arm(&spec)
	world, err := s.newWorld(cfg, size, ws)
	if err != nil {
		t.Fatal(err)
	}
	return ch, world
}

// TestInstrumentedBlocksShared: the instrumented block at a fork's site is a
// function of the clean block and the probe, so forks of one BaseCache
// execute the same *TB; a different op set, and the detached injector
// (fi_clean_cb), get other blocks.
func TestInstrumentedBlocksShared(t *testing.T) {
	conf, ws := sweepFork(t)
	siteBlock := func(cfg RunConfig) *tcg.TB {
		t.Helper()
		_, world := armedWorld(t, cfg, ws)
		m := world.Machine(0) // resumes at the site
		tb, err := m.Trans.Block(m.PC())
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	helpers := func(tb *tcg.TB) (n int) {
		for i := range tb.Ops {
			if tb.Ops[i].Kind == tcg.KHelper {
				n++
			}
		}
		return n
	}

	first, second := siteBlock(conf(1)), siteBlock(conf(2))
	if first != second {
		t.Error("two forks of one BaseCache translated the site block separately")
	}
	if helpers(first) == 0 {
		t.Fatal("the site block carries no injector call")
	}

	narrow := conf(3)
	spec := *narrow.Spec
	spec.Ops = []isa.Op{isa.OpFDiv, isa.OpLd}
	narrow.Spec = &spec
	if tb := siteBlock(narrow); tb == first {
		t.Error("a fork with a different op set got the same instrumented block")
	}

	// After the injection the injector detaches: the machine's next lookup of
	// the site must be a clean block.
	ch, world := armedWorld(t, conf(4), ws)
	m := world.Machine(0)
	site := m.PC()
	if tb, _ := m.Trans.Block(site); tb != first {
		t.Error("the fork that will run did not get the shared block")
	}
	world.Run()
	if len(ch.Records()) != 1 || !ch.state(m).detached {
		t.Fatalf("the run injected %d faults (detached=%v)", len(ch.Records()), ch.state(m).detached)
	}
	after, err := m.Trans.Block(site)
	if err != nil {
		t.Fatal(err)
	}
	if after == first || helpers(after) != 0 {
		t.Errorf("after fi_clean_cb the site block still has %d injector calls", helpers(after))
	}
}

// TestInjectorRNGOnlyOnTargets: only ranks the spec targets draw from an
// injector random stream, so only they seed one, with the formula every
// earlier build used: the injection records below were printed by the commit
// that still seeded all four ranks.
func TestInjectorRNGOnlyOnTargets(t *testing.T) {
	app, err := apps.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rank int
		want string
	}{
		{0, "rank 0: ld @ 0x400720 exec#300 mem 0x7ffeff60 mask=0x4000000080000002 0xe9acbbf8579229b0 -> 0xa9acbbf8d79229b2"},
		{2, "rank 2: ld @ 0x401420 exec#300 reg r14 mask=0x400000042000000 0x7ffeffb0 -> 0x40000003dfeffb0"},
	} {
		cfg := RunConfig{Prog: app.Prog, WorldSize: 4, Spec: &Spec{
			Target: app.Name, Ops: app.DefaultOps, TargetRank: tc.rank,
			Cond: Deterministic{N: 300}, Bits: 3, Seed: 41, Trace: true,
		}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 1 || res.Records[0].String() != tc.want {
			t.Errorf("target rank %d injected\n %v\nwant\n %s", tc.rank, res.Records, tc.want)
		}
		ch, world := armedWorld(t, cfg, nil)
		for r := 0; r < 4; r++ {
			if has := ch.state(world.Machine(r)).rng != nil; has != (r == tc.rank) {
				t.Errorf("target rank %d: rank %d holds an rng: %v", tc.rank, r, has)
			}
		}
	}
}

// TestInjectorRNGSeededOnFirstDraw: the injector's stream is seeded when it
// is first drawn from, and is the stream an eagerly seeded source gives —
// same masks, targets and PCs whether the condition draws (Probabilistic) or
// only the injector does (Deterministic) — while a world that never reaches
// its trigger seeds nothing.
func TestInjectorRNGSeededOnFirstDraw(t *testing.T) {
	app, err := apps.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	for _, cond := range []Condition{Deterministic{N: 300}, Probabilistic{P: 0.01}} {
		cfg := RunConfig{Prog: app.Prog, WorldSize: 4, Spec: &Spec{
			Target: app.Name, Ops: app.DefaultOps, TargetRank: 0,
			Cond: cond, Bits: 3, Seed: 41, MaxInjections: 4,
		}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) == 0 {
			t.Fatalf("%v: nothing injected", cond)
		}
		ch, world := armedWorld(t, cfg, nil)
		st := ch.state(world.Machine(0))
		if st.rng == nil {
			t.Fatalf("%v: target rank holds no rng", cond)
		}
		st.rng = rand.New(rand.NewSource(41*1000003 + 0))
		world.Run()
		eager := ch.Records()
		if len(eager) != len(res.Records) {
			t.Fatalf("%v: %d records seeded lazily, %d eagerly", cond, len(res.Records), len(eager))
		}
		for i, want := range eager {
			if got := res.Records[i]; got.Mask != want.Mask || got.Target != want.Target || got.PC != want.PC {
				t.Errorf("%v: record %d seeded lazily\n %v\neagerly\n %v", cond, i, got, want)
			}
		}
	}

	// A trigger past the rank's last execution: the stream is never drawn
	// from, so not one of its values is computed.
	cfg := RunConfig{Prog: app.Prog, WorldSize: 4, Spec: &Spec{
		Target: app.Name, Ops: app.DefaultOps, TargetRank: 0,
		Cond: Deterministic{N: 1 << 40}, Bits: 1, Seed: 41,
	}}
	ch, world := armedWorld(t, cfg, nil)
	src := &lazySource{seed: 41 * 1000003}
	ch.state(world.Machine(0)).rng = rand.New(src)
	world.Run()
	if len(ch.Records()) != 0 || src.draws != 0 {
		t.Error("a run that never injected seeded its source")
	}
}

func BenchmarkForkedRun(b *testing.B) {
	conf, ws := sweepFork(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunForked(conf(int64(i)), ws); err != nil {
			b.Fatal(err)
		}
	}
}
