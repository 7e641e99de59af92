package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"chaser/internal/apps"
	"chaser/internal/campaign"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
)

// testHub serves a durable TaintHub over loopback TCP, as chaserd's workers
// reach theirs.
func testHub(t *testing.T) string {
	t.Helper()
	hub, err := tainthub.OpenDurable(filepath.Join(t.TempDir(), "hub.wal"), tainthub.DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	srv, err := tainthub.NewServerConfig(hub, "127.0.0.1:0", tainthub.ServerConfig{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

func quietWorker(reg *obs.Registry) *Worker {
	return NewWorker(WorkerConfig{Name: "w", Obs: reg, Logf: func(string, ...any) {}})
}

// resetBaselines empties the process's kept baselines, so a test that counts
// golden runs, baselines or spine rungs starts from none, whatever ran before
// it in the process.
func resetBaselines() {
	keptBaselines.mu.Lock()
	defer keptBaselines.mu.Unlock()
	keptBaselines.byApp = make(map[string]*keptBaseline)
}

// keptBase returns the baseline the process keeps for app, nil when none is
// ready.
func keptBase(app string) *campaign.Baseline {
	kb := keptBaselines.entry(app)
	if kb == nil {
		return nil
	}
	select {
	case <-kb.ready:
		return kb.base
	default:
		return nil
	}
}

// TestWorkerCacheDifferential: one worker executes the shards of eight
// campaigns, two of each of four guests, interleaved so that almost every
// shard meets a baseline another campaign's shard prepared — the process
// keeps one per app. A warm shard must be the cold shard: on every guest —
// the MPI ones through the durable hub — its journal is byte for byte the one
// cache-less ExecuteShard writes, and the merged report is the standalone
// campaign's.
func TestWorkerCacheDifferential(t *testing.T) {
	resetBaselines()
	hubAddr := testHub(t)
	type camp struct {
		spec   Spec
		app    apps.App
		hub    string
		nsBase int
	}
	var camps []camp
	nsBase := 0
	for round := 0; round < 2; round++ {
		for i, name := range []string{"bfs", "kmeans", "matvec", "clamr_mpi"} {
			app, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sp := Spec{App: name, Runs: 12, Seed: int64(100*round + 7*i + 3), Bits: 1 + round, Shards: 3, Trace: true, Parallel: 1}.normalize()
			c := camp{spec: sp, app: app, nsBase: nsBase}
			if app.WorldSize > 1 {
				c.hub = hubAddr
			}
			nsBase += sp.Runs
			camps = append(camps, c)
		}
	}

	reg := obs.NewRegistry()
	w := quietWorker(reg)
	warmDir, coldDir := t.TempDir(), t.TempDir()
	journal := func(dir string, ci, shard int) string {
		return filepath.Join(dir, fmt.Sprintf("c%d-shard%d.journal", ci, shard))
	}
	shards := 0
	for shard := 0; shard < 3; shard++ {
		for ci, c := range camps {
			lo, hi := c.spec.shardRange(shard)
			a := Assignment{Campaign: fmt.Sprint(ci), Shard: shard, Lo: lo, Hi: hi, Spec: c.spec, Hub: c.hub, NSBase: c.nsBase}
			a.Journal = journal(warmDir, ci, shard)
			if err := w.runShard(&a, nil); err != nil {
				t.Fatalf("campaign %d (%s) shard %d on the worker: %v", ci, c.spec.App, shard, err)
			}
			shards++
			a.Journal = journal(coldDir, ci, shard)
			if err := ExecuteShard(&a, nil, nil); err != nil {
				t.Fatal(err)
			}
			warm, err := os.ReadFile(journal(warmDir, ci, shard))
			if err != nil {
				t.Fatal(err)
			}
			cold, err := os.ReadFile(a.Journal)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(warm, cold) {
				t.Errorf("campaign %d (%s) shard %d: the journal written on a kept baseline differs from the cache-less one (%d and %d bytes)",
					ci, c.spec.App, shard, len(warm), len(cold))
			}
		}
	}

	for ci, c := range camps {
		cfg := campaignConfig(c.spec, c.app, c.nsBase)
		paths := []string{journal(warmDir, ci, 0), journal(warmDir, ci, 1), journal(warmDir, ci, 2)}
		merged, err := campaign.MergeJournals(cfg, nil, paths...)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := campaign.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if merged.Report() != alone.Report() {
			t.Errorf("campaign %d (%s): merged report of the worker's shards\n%s\nstandalone\n%s", ci, c.spec.App, merged.Report(), alone.Report())
		}
	}

	counter := func(name string) int { return int(reg.Counter(name).Value()) }
	if g := counter("campaign_golden_runs_total"); g != 4 {
		t.Errorf("campaign_golden_runs_total = %d over four guests, want 4", g)
	}
	if h, m := counter("worker_baseline_hits_total"), counter("worker_baseline_misses_total"); m != 4 || h != shards-4 {
		t.Errorf("worker baseline hits %d misses %d over %d shards of four guests", h, m, shards)
	}
}

// TestWorkerCacheDropsFailedShard: a shard that returns an error, and one
// that panics, take their app's baseline out of the process, spine and all —
// the requeued (or poisoned) shard that follows starts from a fresh golden
// run, as every shard did before baselines were kept — and an error is never
// kept. The spine gauges read what the process's baselines hold after every
// shard.
func TestWorkerCacheDropsFailedShard(t *testing.T) {
	resetBaselines()
	reg := obs.NewRegistry()
	w := quietWorker(reg)
	dir := t.TempDir()
	n := 0
	shard := func(app string) *Assignment {
		n++
		sp := Spec{App: app, Runs: 4, Seed: int64(n), Shards: 1, Parallel: 1}.normalize()
		return &Assignment{Spec: sp, Lo: 0, Hi: 4, Journal: filepath.Join(dir, fmt.Sprintf("%d.journal", n))}
	}
	goldens := func() uint64 { return reg.Counter("campaign_golden_runs_total").Value() }
	run := func(a *Assignment, wantGoldens uint64) {
		t.Helper()
		if err := w.runShard(a, nil); err != nil {
			t.Fatal(err)
		}
		if g := goldens(); g != wantGoldens {
			t.Fatalf("%d golden runs, want %d", g, wantGoldens)
		}
		if keptBase(a.Spec.App) == nil {
			t.Fatalf("no baseline kept for %s", a.Spec.App)
		}
	}
	spine := func() (rungs, bytes float64) {
		return reg.Gauge("campaign_spine_rungs").Value(), reg.Gauge("campaign_spine_bytes").Value()
	}
	// gaugesRead demands that the gauges read what the process's baselines
	// hold between them (a dropped one holds nothing).
	gaugesRead := func(what string) {
		t.Helper()
		var rungs, bytes float64
		for _, app := range []string{"kmeans", "bfs"} {
			r, b := keptBase(app).SpineSize()
			rungs, bytes = rungs+float64(r), bytes+float64(b)
		}
		if r, b := spine(); r != rungs || b != bytes {
			t.Fatalf("%s: the spine gauges read %v rungs, %v bytes; the kept baselines hold %v and %v", what, r, b, rungs, bytes)
		}
	}
	run(shard("kmeans"), 1)
	run(shard("kmeans"), 1)
	kmRungs, kmBytes := spine()
	if kmRungs == 0 || kmBytes == 0 {
		t.Fatalf("two kmeans shards left a spine of %v rungs, %v bytes", kmRungs, kmBytes)
	}
	gaugesRead("two kmeans shards")
	run(shard("bfs"), 2)
	allRungs, _ := spine()
	if allRungs <= kmRungs {
		t.Fatalf("a bfs shard added no spine rung: %v, was %v", allRungs, kmRungs)
	}
	gaugesRead("a bfs shard")

	// An error: the shard's window is outside its campaign.
	bad := shard("kmeans")
	bad.Hi = 99
	if err := w.runShard(bad, nil); err == nil {
		t.Fatal("a shard past its campaign's runs succeeded")
	}
	if keptBase("kmeans") != nil {
		t.Fatal("a failed shard left its app's baseline behind")
	}
	if keptBase("bfs") == nil {
		t.Fatal("a failed kmeans shard dropped bfs's baseline")
	}
	if r, _ := spine(); r != allRungs-kmRungs {
		t.Fatalf("the spine did not go with the dropped baseline: %v rungs, want bfs's %v", r, allRungs-kmRungs)
	}
	gaugesRead("a failed kmeans shard")
	prefixes := reg.Counter("campaign_prefix_runs_total").Value()
	run(shard("kmeans"), 3)
	if r, _ := spine(); r <= allRungs-kmRungs || reg.Counter("campaign_prefix_runs_total").Value() == prefixes {
		t.Fatalf("the fresh kmeans baseline built no spine of its own: %v rungs in all", r)
	}
	gaugesRead("a fresh kmeans baseline")

	// A panic, from an engine the test replaces for one shard.
	w.cfg.RunShard = func(*Assignment) error { panic("poisoned") }
	if err := w.runShard(shard("bfs"), nil); err == nil || err.Error() != "panic: poisoned" {
		t.Fatalf("a panicking shard returned %v", err)
	}
	w.cfg.RunShard = nil
	if keptBase("bfs") != nil {
		t.Fatal("a panicking shard left its app's baseline behind")
	}
	gaugesRead("a panicking bfs shard")
	km := keptBase("kmeans")
	run(shard("bfs"), 4)
	gaugesRead("a fresh bfs baseline")

	// An error before there is a baseline keeps nothing: no such app.
	if err := w.runShard(shard("nosuchapp"), nil); err == nil {
		t.Fatal("an unknown app ran")
	}
	keptBaselines.mu.Lock()
	apps := len(keptBaselines.byApp)
	keptBaselines.mu.Unlock()
	if apps != 2 {
		t.Fatalf("%d baselines kept, want kmeans and bfs", apps)
	}

	// The exported, cache-less call keeps nothing either.
	before := goldens()
	for i := 0; i < 2; i++ {
		if err := ExecuteShard(shard("kmeans"), nil, reg); err != nil {
			t.Fatal(err)
		}
	}
	if g := goldens(); g != before+2 {
		t.Errorf("two ExecuteShard calls ran %d golden runs, want one each", g-before)
	}
	if keptBase("kmeans") != km {
		t.Error("ExecuteShard replaced the process's kmeans baseline")
	}
	gaugesRead("two ExecuteShard calls")
}

// TestWorkerSpineOutlivesTheShard: ten 40-run matvec campaigns, four shards
// each, through one worker. Before baselines were kept the golden run was
// walked once per shard and paused at every site — a prefix run per run, 400.
// The process's baseline keeps its spine: each position of a targeted rank is
// built once, by whichever shard reaches it first, a shard after that builds a
// rung only where two of its ten sites share a stretch, and the prefix runs
// stop tracking the runs.
func TestWorkerSpineOutlivesTheShard(t *testing.T) {
	resetBaselines()
	reg := obs.NewRegistry()
	w := quietWorker(reg)
	dir := t.TempDir()
	count := func(name string) uint64 { return reg.Counter(name).Value() }
	var afterFirst uint64
	for c := 0; c < 10; c++ {
		sp := Spec{App: "matvec", Runs: 40, Seed: int64(900 + c), Shards: 4, Trace: true, Parallel: 1}.normalize()
		for shard := 0; shard < sp.Shards; shard++ {
			lo, hi := sp.shardRange(shard)
			a := Assignment{Campaign: fmt.Sprint(c), Shard: shard, Lo: lo, Hi: hi, Spec: sp,
				Journal: filepath.Join(dir, fmt.Sprintf("c%d-shard%d.journal", c, shard))}
			if err := w.runShard(&a, nil); err != nil {
				t.Fatal(err)
			}
		}
		if c == 0 {
			afterFirst = count("campaign_prefix_runs_total")
		}
	}
	runs, prefixes := count("campaign_runs_started_total"), count("campaign_prefix_runs_total")
	rungs := reg.Gauge("campaign_spine_rungs").Value()
	t.Logf("%d runs, %d prefix runs (%d in the first campaign), spine %v rungs, %d forked",
		runs, prefixes, afterFirst, rungs, count("campaign_forked_runs_total"))
	if runs != 400 {
		t.Fatalf("%d runs started, want 400", runs)
	}
	// A spine position costs a prefix run once, and only once.
	if held, _ := keptBase("matvec").SpineSize(); rungs == 0 || float64(held) != rungs || uint64(rungs) > prefixes {
		t.Errorf("the spine gauge reads %v rungs, the baseline holds %d, over %d prefix runs", rungs, held, prefixes)
	}
	// Ten sites a shard over the spine's stretches: a handful share one.
	// Half the runs is far above that and far below one a run.
	if prefixes > runs/2 {
		t.Errorf("%d prefix runs for %d runs: the ladder is being rebuilt per shard", prefixes, runs)
	}
	if g := count("campaign_golden_runs_total"); g != 1 {
		t.Errorf("campaign_golden_runs_total = %d, want 1", g)
	}
}

// failControl is a Control that hands out nothing and records what a worker
// reports.
type failControl struct {
	mu                sync.Mutex
	failed, completed []string
}

func (c *failControl) Claim(string) (*Assignment, error) { return nil, nil }
func (c *failControl) Heartbeat(string) error            { return nil }

func (c *failControl) Complete(token string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completed = append(c.completed, token)
	return nil
}

func (c *failControl) Fail(_, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed = append(c.failed, reason)
	return nil
}

// TestPrefixFailureFailsTheShard is the worker's half of the campaign test of
// the same name: a prefix run that fails on the process's kept Baseline —
// whose instruction budget is lowered behind Prepare's back, which no Config
// can do — fails the shard through the Worker's own path: the reason names
// the prefix site, and the app's Baseline leaves the process, so the retry
// starts from a fresh golden run.
func TestPrefixFailureFailsTheShard(t *testing.T) {
	resetBaselines()
	reg := obs.NewRegistry()
	ctl := &failControl{}
	w := NewWorker(WorkerConfig{Name: "w", Control: ctl, Obs: reg, Logf: func(string, ...any) {}})
	app, err := apps.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{App: "matvec", Runs: 8, Seed: 5, Shards: 1, Trace: true, Parallel: 2}.normalize()
	keptBaselines.get("matvec", func() (*campaign.Baseline, error) {
		base, err := campaign.Prepare(campaignConfig(sp, app, 0))
		if err == nil {
			f := reflect.ValueOf(base).Elem().FieldByName("maxInstr")
			reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().SetUint(1)
		}
		return base, err
	})
	if keptBase("matvec") == nil {
		t.Fatal("no matvec baseline kept")
	}
	w.execute(&Assignment{Token: "t", Spec: sp, Lo: 0, Hi: sp.Runs, TTLMs: 60_000,
		Journal: filepath.Join(t.TempDir(), "shard.journal")})
	if len(ctl.failed) != 1 || len(ctl.completed) != 0 || !strings.Contains(ctl.failed[0], "campaign: prefix run to (rank 0, n ") {
		t.Fatalf("shard reported failed %q, completed %q; want one failure naming a prefix site", ctl.failed, ctl.completed)
	}
	if n := reg.Counter("worker_shards_failed_total").Value(); n != 1 {
		t.Errorf("worker_shards_failed_total = %d, want 1", n)
	}
	if keptBase("matvec") != nil {
		t.Error("the failed shard left matvec's baseline in the process")
	}
}

// TestWorkerCachePoolSharesBaselines: two workers of one process execute the
// shards of interleaved matvec and bfs campaigns at once. The process
// prepares one baseline per app — whichever worker claims its first shard,
// the other waiting for it — and builds each app's spine once: the two
// workers perform exactly the prefix runs one worker performs on the same
// shards. Every merged report is the standalone campaign's. Then a shard that
// fails on one worker drops its app's baseline once, while the other worker
// finishes the shard it is running on the old one, and a failure on the old
// one does not drop the new.
func TestWorkerCachePoolSharesBaselines(t *testing.T) {
	dir := t.TempDir()
	var specs []Spec
	for c := 0; c < 6; c++ {
		app := []string{"matvec", "bfs"}[c%2]
		specs = append(specs, Spec{App: app, Runs: 24, Seed: int64(300 + c), Shards: 4, Trace: c%3 != 2, Parallel: 1}.normalize())
	}
	journal := func(pass string, c, shard int) string {
		return filepath.Join(dir, fmt.Sprintf("%s-c%d-shard%d.journal", pass, c, shard))
	}
	// execute runs every shard of every campaign, shard by shard across the
	// campaigns, on the given workers, and returns their registry.
	execute := func(pass string, workers int) *obs.Registry {
		resetBaselines()
		reg := obs.NewRegistry()
		queue := make(chan Assignment)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			w := quietWorker(reg)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for a := range queue {
					if err := w.runShard(&a, nil); err != nil {
						t.Errorf("%s: campaign %s shard %d: %v", pass, a.Campaign, a.Shard, err)
					}
				}
			}()
		}
		for shard := 0; shard < 4; shard++ {
			for c, sp := range specs {
				lo, hi := sp.shardRange(shard)
				queue <- Assignment{Campaign: fmt.Sprint(c), Shard: shard, Lo: lo, Hi: hi, Spec: sp, Journal: journal(pass, c, shard)}
			}
		}
		close(queue)
		wg.Wait()
		return reg
	}
	alone := execute("alone", 1)
	pool := execute("pool", 2)
	if t.Failed() {
		return
	}
	count := func(reg *obs.Registry, name string) uint64 { return reg.Counter(name).Value() }
	if g, m := count(pool, "campaign_golden_runs_total"), count(pool, "worker_baseline_misses_total"); g != 2 || m != 2 {
		t.Errorf("two workers over two apps: %d golden runs, %d baseline misses; want one of each an app", g, m)
	}
	if h := count(pool, "worker_baseline_hits_total"); h != uint64(4*len(specs)-2) {
		t.Errorf("%d baseline hits over %d shards, want all but the two that prepared", h, 4*len(specs))
	}
	if p, want := count(pool, "campaign_prefix_runs_total"), count(alone, "campaign_prefix_runs_total"); p != want {
		t.Errorf("two workers ran %d prefix runs, one worker %d: a spine was built twice", p, want)
	}
	poolRungs := pool.Gauge("campaign_spine_rungs").Value()
	if want := alone.Gauge("campaign_spine_rungs").Value(); poolRungs != want || poolRungs == 0 {
		t.Errorf("two workers keep %v spine rungs, one worker %v", poolRungs, want)
	}
	for c, sp := range specs {
		app, err := apps.ByName(sp.App)
		if err != nil {
			t.Fatal(err)
		}
		cfg := campaignConfig(sp, app, 0)
		merged, err := campaign.MergeJournals(cfg, nil, journal("pool", c, 0), journal("pool", c, 1), journal("pool", c, 2), journal("pool", c, 3))
		if err != nil {
			t.Fatal(err)
		}
		want, err := campaign.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if merged.Report() != want.Report() {
			t.Errorf("campaign %d (%s): merged report of the pool's shards\n%s\nstandalone\n%s", c, sp.App, merged.Report(), want.Report())
		}
	}

	// A long matvec shard runs on one worker while a matvec shard fails on
	// the other.
	reg := pool
	long := Spec{App: "matvec", Runs: 120, Seed: 77, Shards: 1, Trace: true, Parallel: 1}.normalize()
	longShard := Assignment{Campaign: "long", Lo: 0, Hi: long.Runs, Spec: long, Journal: journal("long", 0, 0)}
	old := keptBaselines.entry("matvec")
	hits := count(reg, "worker_baseline_hits_total")
	done := make(chan error, 1)
	go func() { done <- quietWorker(reg).runShard(&longShard, nil) }()
	for count(reg, "worker_baseline_hits_total") == hits { // until the long shard holds the old baseline
		select {
		case err := <-done:
			t.Fatalf("the long shard ended before it held a baseline: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	other := quietWorker(reg)
	bad := Assignment{Campaign: "bad", Lo: 0, Hi: 99, Spec: specs[0], Journal: journal("bad", 0, 0)}
	if err := other.runShard(&bad, nil); err == nil {
		t.Fatal("a shard past its campaign's runs succeeded")
	}
	if keptBase("matvec") != nil {
		t.Fatal("the failed shard left matvec's baseline in the process")
	}
	next := Assignment{Campaign: "next", Lo: 0, Hi: 6, Spec: specs[0], Journal: journal("next", 0, 0)}
	if err := other.runShard(&next, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("the long shard on the old baseline: %v", err)
	}
	if g := count(reg, "campaign_golden_runs_total"); g != 3 {
		t.Errorf("%d golden runs, want the two apps' and one after the failure", g)
	}
	fresh := keptBase("matvec")
	if fresh == nil || fresh == old.base {
		t.Fatal("the shard after the failure did not prepare a baseline of its own")
	}
	keptBaselines.drop("matvec", old) // a late failure on the old baseline
	if keptBase("matvec") != fresh {
		t.Error("dropping the old baseline dropped the one that replaced it")
	}
	cold := longShard
	cold.Journal = journal("cold", 0, 0)
	if err := ExecuteShard(&cold, nil, nil); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(longShard.Journal)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(cold.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("the shard that finished on the dropped baseline wrote another journal than a cold shard")
	}
}
