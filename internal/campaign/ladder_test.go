package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/core"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/obs"
	"chaser/internal/wal"
)

// appConfig is a small random-site campaign against a bundled application.
func appConfig(t testing.TB, name string) Config {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
		Ops: app.DefaultOps, TargetRank: max(app.TargetRank, 0),
		Runs: 12, Bits: 1, Seed: 1207, Trace: true, Parallel: 2,
		KeepRunOutcomes: true,
	}
}

// sameReport demands that two summaries of one campaign agree bitwise in
// everything a campaign reports: the exported JSON and every rendered text.
func sameReport(t *testing.T, want, got *Summary) {
	t.Helper()
	summariesEqual(t, want, got)
	for _, render := range []func(*Summary) string{
		(*Summary).Report, (*Summary).PerOpReport, (*Summary).TerminationTable, (*Summary).MemOpsReport,
	} {
		if w, g := render(want), render(got); w != g {
			t.Errorf("report text diverges:\n%s\n%s", w, g)
		}
	}
}

// sameCampaign is sameReport plus every per-run outcome, field for field
// (two executions; outcomes read back from a journal drop unserialized
// fields).
func sameCampaign(t *testing.T, want, got *Summary) {
	t.Helper()
	sameReport(t, want, got)
	if !reflect.DeepEqual(want.Outcomes, got.Outcomes) {
		for i := range want.Outcomes {
			if i < len(got.Outcomes) && !reflect.DeepEqual(want.Outcomes[i], got.Outcomes[i]) {
				t.Errorf("run %d diverges:\n scratch %+v\n ladder  %+v", i, want.Outcomes[i], got.Outcomes[i])
			}
		}
		t.Errorf("per-run outcomes diverge (%d vs %d runs)", len(want.Outcomes), len(got.Outcomes))
	}
}

// sameFile demands that two files hold the same bytes.
func sameFile(t *testing.T, want, got string) {
	t.Helper()
	a, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("%s (%d bytes) and %s (%d bytes) differ", filepath.Base(want), len(a), filepath.Base(got), len(b))
	}
}

// sameJournalRecords demands that two journals hold the same header and, run
// for run, the same record bytes, whatever order the runs completed in.
func sameJournalRecords(t *testing.T, want, got string) {
	t.Helper()
	records := func(path string) map[int][]byte {
		out := map[int][]byte{}
		err := wal.Replay(path, maxJournalRecord, func(p []byte) error {
			idx := -1 // the header
			if len(out) > 0 {
				var e journalEntry
				if err := json.Unmarshal(p, &e); err != nil {
					return err
				}
				idx = e.Idx
			}
			out[idx] = bytes.Clone(p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := records(want), records(got)
	if len(a) != len(b) {
		t.Errorf("%s holds %d records, %s %d", filepath.Base(want), len(a), filepath.Base(got), len(b))
	}
	for idx, rec := range a {
		if !bytes.Equal(rec, b[idx]) {
			t.Errorf("run %d (-1: header):\n %s: %s\n %s: %s", idx, filepath.Base(want), rec, filepath.Base(got), b[idx])
		}
	}
}

// ladderCounts reads the fork telemetry of one campaign.
type ladderCounts struct {
	prefix, forked, repeated, hits, misses uint64
	highWater                              float64
}

func countsOf(reg *obs.Registry) ladderCounts {
	return ladderCounts{
		prefix:    reg.Counter("campaign_prefix_runs_total").Value(),
		forked:    reg.Counter("campaign_forked_runs_total").Value(),
		repeated:  reg.Counter("campaign_runs_repeated_total").Value(),
		hits:      reg.Counter("campaign_snapshot_cache_hits_total").Value(),
		misses:    reg.Counter("campaign_snapshot_cache_misses_total").Value(),
		highWater: reg.Gauge("campaign_snapshot_cache_bytes_high_water").Value(),
	}
}

// TestLadderMatchesNoFork is the campaign-level ladder differential: a
// random-site campaign forked from the checkpoint ladder must be bitwise its
// NoFork twin, run by run — over serial and MPI guests, a fixed and a drawn
// target rank, tracing on and off, and the ways a ladder can be cut short.
// Both campaigns write a journal, and the two hold the same records byte for
// byte — in different orders (a journal is in completion order, and a ladder
// completes its runs in site order), so the records are compared by run.
func TestLadderMatchesNoFork(t *testing.T) {
	type variant struct {
		name string
		edit func(*Config)
		// check inspects the ladder's telemetry (nil: the default, every run
		// forked but those alone below the first spine position).
		check func(t *testing.T, cfg Config, c ladderCounts)
		// procs, when set, is GOMAXPROCS for the campaigns.
		procs int
	}
	allForked := func(t *testing.T, cfg Config, c ladderCounts) {
		t.Helper()
		lo, hi, _ := cfg.bounds()
		// A run forks, repeats an earlier run's fault at its site or —
		// nothing resident below its site — starts at program entry, which
		// is a cache miss.
		if c.forked+c.repeated+c.misses < uint64(hi-lo) || c.forked == 0 {
			t.Errorf("forked %d + repeated %d + misses %d over %d runs", c.forked, c.repeated, c.misses, hi-lo)
		}
		if c.prefix == 0 {
			t.Error("no prefix run: neither a spine position nor a rung")
		}
	}
	base := []variant{
		{name: "rank0"},
		{name: "any-rank", edit: func(c *Config) { c.TargetRank = -1 }},
		{name: "untraced", edit: func(c *Config) { c.Trace = false }},
	}
	serial := variant{name: "serial-workers", edit: func(c *Config) { c.Parallel = 1 }}
	extra := []variant{
		{name: "mid-shard", edit: func(c *Config) { c.Runs = 30; c.Shard = &ShardRange{Lo: 9, Hi: 21} }},
		serial,
	}
	// The feed: more workers than it queues jobs ahead of them, more tasks
	// than it queues on one worker, and every goroutine on one P.
	feed := []variant{
		{name: "wide-pool", edit: func(c *Config) { c.Parallel = feedDepth + 1 }},
		{name: "deep-queue", edit: func(c *Config) { c.Parallel, c.Runs = 1, feedDepth+8 }},
		{name: "one-proc", procs: 1},
	}
	with := func(vs ...[]variant) []variant {
		var out []variant
		for _, v := range vs {
			out = append(out, v...)
		}
		return out
	}
	cases := map[string][]variant{
		"lud":       with(base, feed),
		"kmeans":    with(base, extra, feed),
		"bfs":       base,
		"matvec":    with(base, extra, feed),
		"clamr_mpi": with(base, []variant{serial}, feed),
	}
	// Two tasks on one site: fewer golden executions of the targeted op than
	// runs, so the pigeonhole forces shared rungs (mov: 10 on kmeans; fld: 24
	// on matvec's master).
	shared := func(op isa.Op, runs int) variant {
		return variant{name: "shared-sites", edit: func(c *Config) { c.Ops = []isa.Op{op}; c.Runs = runs },
			check: func(t *testing.T, cfg Config, c ladderCounts) {
				allForked(t, cfg, c)
				if c.prefix >= uint64(cfg.Runs) {
					t.Errorf("%d prefix runs for %d runs over fewer sites", c.prefix, cfg.Runs)
				}
			}}
	}
	cases["kmeans"] = append(cases["kmeans"], shared(isa.OpMov, 15))
	cases["matvec"] = append(cases["matvec"], shared(isa.OpFLd, 30))

	for _, name := range []string{"lud", "kmeans", "bfs", "matvec", "clamr_mpi"} {
		for _, v := range cases[name] {
			t.Run(name+"/"+v.name, func(t *testing.T) {
				if v.procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.procs))
				}
				cfg := appConfig(t, name)
				if v.edit != nil {
					v.edit(&cfg)
				}
				dir := t.TempDir()
				scfg := cfg
				scfg.NoFork = true
				scfg.Journal = filepath.Join(dir, "scratch.journal")
				scratch, err := Run(scfg)
				if err != nil {
					t.Fatal(err)
				}
				reg := obs.NewRegistry()
				cfg.Obs = reg
				cfg.Journal = filepath.Join(dir, "ladder.journal")
				emptyResidents()
				ladder, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameCampaign(t, scratch, ladder)
				sameJournalRecords(t, scfg.Journal, cfg.Journal)
				check := v.check
				if check == nil {
					check = allForked
				}
				check(t, cfg, countsOf(reg))
			})
		}
	}
}

// TestForkTelemetryIsAFunctionOfTheSeed: with one rank running at a time a
// campaign's ladder is a property of the guest and the seed, so two campaigns
// of one seed count the same prefixes, forks and cache hits (and agree run by
// run), whatever the number of cores — the CLAMR campaign too, long enough
// that ranks stand inside MPI calls at many of its sites.
func TestForkTelemetryIsAFunctionOfTheSeed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"matvec", "clamr_mpi"} {
		t.Run(name, func(t *testing.T) {
			var want ladderCounts
			var first *Summary
			for i, procs := range []int{1, 4, 2} {
				runtime.GOMAXPROCS(procs)
				cfg := appConfig(t, name)
				cfg.Runs, cfg.TargetRank = 60, -1
				reg := obs.NewRegistry()
				cfg.Obs = reg
				emptyResidents()
				sum, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := countsOf(reg)
				got.highWater = 0 // depends on which rungs two workers hold at once
				if i == 0 {
					want, first = got, sum
					t.Logf("%d runs: %+v", cfg.Runs, got)
					continue
				}
				if got != want {
					t.Errorf("GOMAXPROCS=%d: fork telemetry %+v, was %+v", procs, got, want)
				}
				sameCampaign(t, first, sum)
			}
		})
	}
}

// TestLadderChainsOnePassPerRank pins the ladder's shape on a serial guest
// with distinct sites: one prefix execution per spine position below the
// furthest site and one per site a later task shares a stretch of the spine
// with, only a first stretch's first from program entry (the one cache miss),
// every run forked but one alone in the first stretch, and the resident set
// far below what the rungs would hold unshared.
func TestLadderChainsOnePassPerRank(t *testing.T) {
	cfg := appConfig(t, "lud")
	cfg.Runs = 24
	reg := obs.NewRegistry()
	cfg.Obs = reg
	emptyResidents()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := planTasks(cfg, base.totals)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedWalk(tasks, base.totals)
	t.Logf("24 sites: %+v", want)
	if want.spine < len(base.cuts[0])/2 || want.own == 0 {
		t.Fatalf("the plan neither reaches half the spine nor chains a rung: %+v", want)
	}
	c := countsOf(reg)
	if c.prefix != uint64(want.spine+want.own) || c.forked != uint64(24-want.entry) {
		t.Errorf("prefix %d forked %d, want %d/%d", c.prefix, c.forked, want.spine+want.own, 24-want.entry)
	}
	if c.misses != uint64(want.misses) || c.hits != uint64(24-want.misses) {
		t.Errorf("cache misses %d hits %d, want %d and %d: only the first stretch starts from program entry", c.misses, c.hits, want.misses, 24-want.misses)
	}
	// A from-scratch run's instructions are the golden run's up to the
	// trigger; the whole ladder must cost about one golden run, not one per
	// rung. Forks publish only what they executed themselves, so the sum is
	// the work actually done.
	g, err := core.Golden(cfg.Prog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	golden := g.Counters[0].Instructions
	sreg := obs.NewRegistry()
	scfg := cfg
	scfg.NoFork, scfg.Obs = true, sreg
	if _, err := Run(scfg); err != nil {
		t.Fatal(err)
	}
	scratchInstrs := sreg.Counter("vm_instructions_total").Value()
	ladderInstrs := reg.Counter("vm_instructions_total").Value()
	if saved := scratchInstrs - ladderInstrs; ladderInstrs >= scratchInstrs || saved < 8*golden {
		t.Errorf("ladder executed %d instructions, scratch %d (golden run %d): 24 replayed prefixes should save about 12 golden runs",
			ladderInstrs, scratchInstrs, golden)
	}
	// Early release: the cache never held more than a rung and what its
	// successor adds — not 24 times the guest's memory.
	last, err := core.PrefixRun(coreConfig(cfg), core.ForkSite{Rank: 0, N: base.totals[0]})
	if err != nil {
		t.Fatal(err)
	}
	if c.highWater > float64(2*last.Bytes()) {
		t.Errorf("snapshot cache high water %v bytes with early release; the guest's whole memory is %d", c.highWater, last.Bytes())
	}
}

// coreConfig is the core configuration of a campaign's runs, for building a
// reference snapshot by hand.
func coreConfig(cfg Config) core.RunConfig {
	return core.RunConfig{Prog: cfg.Prog, WorldSize: cfg.WorldSize, Spec: &core.Spec{
		Target: cfg.Prog.Name, Ops: cfg.Ops, TargetRank: 0, Trace: cfg.Trace,
	}}
}

// TestPrefixFailureFailsTheShard: a prefix run replays a golden run that
// finished within the Baseline's budget, so one that fails is a simulator bug
// and fails the campaign, loudly, whichever builds the rung — the spine at a
// position below the site, or the chain at a site two tasks share — and the
// campaign's pool and progress reporter exit with it. A budget lowered behind
// Prepare's back is the failure no Config can produce. A resident Baseline
// that fails so leaves the registry (TestResidentBaselineDroppedOnFailure);
// the worker's half — the shard reported failed — is the test of the same
// name in internal/server.
func TestPrefixFailureFailsTheShard(t *testing.T) {
	cfg := appConfig(t, "clamr_mpi")
	cfg.Parallel = 4
	cfg.ProgressInterval, cfg.Progress = time.Millisecond, func(ProgressInfo) {}
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base.maxInstr = 1
	sp := base.cuts[0]
	for _, tc := range []struct {
		name     string
		num, den uint64
		site     uint64
	}{
		{"spine position", 1, 2, sp[0]},
		{"chain rung", 1, 4 * spineIntervals, base.totals[0] / (4 * spineIntervals)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := pinnedAt(base, cfg, tc.num, tc.den)
			c.Journal = filepath.Join(t.TempDir(), "j.journal")
			before := runtime.NumGoroutine()
			_, err := base.Run(c)
			want := fmt.Sprintf("campaign: prefix run to (rank 0, n %d)", tc.site)
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("Run = %v, want an error starting %q", err, want)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after the failed campaign, %d before", n, before)
			}
		})
	}
	if rungs, _ := base.SpineSize(); rungs != 0 {
		t.Errorf("the failed prefix runs left %d spine rungs", rungs)
	}
}

// TestLadderInterruptAndResume interrupts a random-site campaign mid-ladder
// and resumes it from its journal: the resumed campaign plans a new ladder
// over the runs still missing and must reproduce the uninterrupted summary
// bitwise.
func TestLadderInterruptAndResume(t *testing.T) {
	cfg := kmeansConfig(t)
	cfg.Runs = 40
	cfg.Parallel = 2
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	interrupted := false
	for attempt := 0; attempt < 5 && !interrupted; attempt++ {
		stop := make(chan struct{})
		var once sync.Once
		icfg := cfg
		icfg.Journal = path
		icfg.Stop = stop
		icfg.ProgressInterval = time.Millisecond
		icfg.Progress = func(p ProgressInfo) {
			if p.Done >= 5 {
				once.Do(func() { close(stop) })
			}
		}
		_, err := Run(icfg)
		switch {
		case errors.Is(err, ErrInterrupted):
			interrupted = true
		case err == nil:
			// The whole campaign outran the interrupt; try again from an
			// empty journal (a finished one would be resumed).
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatal(err)
		}
	}
	if !interrupted {
		t.Fatal("campaign never interrupted across 5 attempts")
	}

	reg := obs.NewRegistry()
	rcfg := cfg
	rcfg.Journal = path
	rcfg.Obs = reg
	res, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, full, res)
	c := countsOf(reg)
	resumed := reg.Counter("campaign_resumed_runs_total").Value()
	if resumed == 0 || c.forked+resumed != uint64(cfg.Runs) {
		t.Errorf("resumed %d + forked %d != %d runs", resumed, c.forked, cfg.Runs)
	}

	// Stop closed as the k-th run finishes, with the queue full: ten sites
	// of mov on kmeans, all but one a spine position, and twenty runs each.
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("queued/parallel=%d", parallel), func(t *testing.T) {
			qcfg := cfg
			qcfg.Ops, qcfg.Runs, qcfg.Parallel = []isa.Op{isa.OpMov}, 200, parallel
			const k = 7
			interruptQueued(t, qcfg, k, func(c *Config, stop func()) {
				var finished atomic.Int32
				c.RunObserver = func(int, int, RunOutcome, *core.RunResult) {
					if finished.Add(1) == k {
						stop()
					}
				}
			})
		})
	}
}

// interruptQueued interrupts cfg with the feed's queue full ahead of the
// workers: arm wires the campaign to call stop once k of its runs have
// finished (k: 0, arm does not know). After stop, only the runs in flight
// finish: at most k + one per worker start (and at most one per worker after
// stop), the rest of the queue is dropped. Resumed from its journal, the
// campaign must give the uninterrupted one's summary and its journal byte for
// byte at one worker (both in dispatch order), record for record at more.
func interruptQueued(t *testing.T, cfg Config, k int, arm func(c *Config, stop func())) {
	t.Helper()
	dir := t.TempDir()
	fcfg := cfg
	fcfg.Journal = filepath.Join(dir, "full.journal")
	full, err := Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}

	var started *obs.Counter
	var atStop uint64
	icfg := cfg
	icfg.Journal = filepath.Join(dir, "run.journal")
	for attempt := 0; ; attempt++ {
		reg := obs.NewRegistry()
		started = reg.Counter("campaign_runs_started_total")
		icfg.Obs = reg
		ch := make(chan struct{})
		icfg.Stop = ch
		var once sync.Once
		arm(&icfg, func() {
			once.Do(func() {
				atStop = started.Value()
				close(ch)
			})
		})
		sum, err := Run(icfg)
		if errors.Is(err, ErrInterrupted) {
			break
		}
		if err == nil && sum == nil {
			t.Fatal("Run after Stop returned neither a summary nor an error")
		}
		if err != nil || attempt == 4 {
			t.Fatalf("Run after Stop: %v, want ErrInterrupted (attempt %d)", err, attempt)
		}
		// The whole campaign outran a progress report; try again.
		if err := os.Remove(icfg.Journal); err != nil {
			t.Fatal(err)
		}
	}
	n, workers := started.Value(), uint64(cfg.Parallel)
	t.Logf("%d of %d runs started, %d when Stop closed", n, cfg.Runs, atStop)
	if n > atStop+workers || k > 0 && n > uint64(k)+workers {
		t.Errorf("%d runs started, %d when Stop closed after %d finished, %d workers: queued runs executed after Stop", n, atStop, k, workers)
	}
	if n >= uint64(cfg.Runs) {
		t.Fatalf("every run started: the queue was empty when Stop closed")
	}

	rcfg := cfg
	rcfg.Journal = icfg.Journal
	res, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, full, res)
	if cfg.Parallel == 1 {
		sameFile(t, fcfg.Journal, icfg.Journal)
	} else {
		sameJournalRecords(t, fcfg.Journal, icfg.Journal)
	}
}

// TestLadderShardJournalsMerge: shards execute their windows in site order,
// so their journals list runs out of index order; merged, they must still
// reproduce the uninterrupted campaign's summary bitwise.
func TestLadderShardJournalsMerge(t *testing.T) {
	cfg := appConfig(t, "matvec")
	cfg.Runs = 24
	cfg.TargetRank = -1
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for lo := 0; lo < cfg.Runs; lo += 8 {
		scfg := cfg
		scfg.Shard = &ShardRange{Lo: lo, Hi: lo + 8}
		scfg.Journal = filepath.Join(dir, fmt.Sprintf("shard-%02d.jsonl", lo))
		if _, err := Run(scfg); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, scfg.Journal)
	}
	merged, err := MergeJournals(cfg, nil, paths...)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, full, merged)
}

// TestFeedHoldsFewRungs is the residency check of the feed running ahead of
// the workers, on lud_sampling's shape: LUD at order 48, 150 random sites on
// rank 0, traced, two workers. A queued job holds the rung it forks from, and
// the feeder builds a rung only while at most one job per worker is queued
// (pool.room), so campaign_snapshot_cache_bytes_high_water may exceed what
// the walk alone keeps — the same walk with nothing queued — by at most one
// of its largest chain rungs per worker.
func TestFeedHoldsFewRungs(t *testing.T) {
	app, err := apps.ByName("lud")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Compile(apps.LUDProgram(48))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name: "lud", Prog: prog, WorldSize: app.WorldSize, Ops: app.DefaultOps,
		Runs: 150, Bits: 1, Seed: 711, Trace: true, Parallel: 2,
	}
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alone, largest := walkAlone(t, base, cfg)

	reg := obs.NewRegistry()
	cfg.Obs = reg
	if _, err := base.Run(cfg); err != nil {
		t.Fatal(err)
	}
	got := reg.Gauge("campaign_snapshot_cache_bytes_high_water").Value()
	rungs := reg.Counter("campaign_prefix_runs_total").Value()
	bound := alone + float64(cfg.Parallel)*float64(largest)
	t.Logf("high water %.0f B, the walk alone %.0f B; largest of %d chain rungs %d B; bound %.0f B", got, alone, rungs, largest, bound)
	if got > bound {
		t.Errorf("queued jobs held %.0f B of rungs beyond the walk's own %.0f B, more than %d rungs of %d B",
			got-alone, alone, cfg.Parallel, largest)
	}
}

// walkAlone drives cfg's walk on base through a ladder of its own with
// nothing queued and returns its campaign_snapshot_cache_bytes_high_water —
// what the walk alone keeps — and the largest of its chain rungs.
func walkAlone(t *testing.T, base *Baseline, cfg Config) (highWater float64, largest int64) {
	t.Helper()
	tasks, err := planTasks(cfg, base.totals)
	if err != nil {
		t.Fatal(err)
	}
	sortBySite(tasks)
	walk := obs.NewRegistry()
	l := newLadder(base, cfg.Trace, nil, walk, func() bool { return true })
	for i, tk := range tasks {
		if _, _, err := l.rung(tk, tasks[i+1:]); err != nil {
			t.Fatal(err)
		}
		if h := l.head; h != nil && h.ws.FreshBytes() > largest {
			largest = h.ws.FreshBytes()
		}
	}
	l.end()
	return walk.Gauge("campaign_snapshot_cache_bytes_high_water").Value(), largest
}
