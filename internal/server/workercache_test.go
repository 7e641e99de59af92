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

// freshCampaign is cfg's whole campaign on a Baseline of its own.
func freshCampaign(t *testing.T, cfg campaign.Config) *campaign.Summary {
	t.Helper()
	base, err := campaign.Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := base.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestWorkerCacheDifferential: one worker executes the shards of eight
// campaigns, two of each of four guests, interleaved so that almost every
// shard meets a baseline another campaign's shard prepared — the process
// keeps one per app. A warm shard must be the cold shard: on every guest —
// the MPI ones through the durable hub — its journal is byte for byte the one
// ExecuteShard writes on a Baseline of its own, and the merged report is the
// standalone campaign's.
func TestWorkerCacheDifferential(t *testing.T) {
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
		if alone := freshCampaign(t, cfg); merged.Report() != alone.Report() {
			t.Errorf("campaign %d (%s): merged report of the worker's shards\n%s\nstandalone\n%s", ci, c.spec.App, merged.Report(), alone.Report())
		}
	}

	// A guest another test left resident costs this one no golden run.
	counter := func(name string) int { return int(reg.Counter(name).Value()) }
	if g, h := counter("campaign_golden_runs_total"), counter("campaign_baseline_hits_total"); g > 4 || g+h != shards {
		t.Errorf("%d golden runs and %d baseline hits over %d shards of four guests", g, h, shards)
	}
}

// TestWorkerCacheDropsFailedShard: a shard that returns an error takes its
// app's baseline out of the process, spine and all — the requeued shard that
// follows starts from a fresh golden run, as every shard did before baselines
// were kept — while a shard that succeeds leaves it for the next; a panic in
// the engine is a failed shard, not a dead worker. (The registry's own rules
// — every kind of failure, a late one on a replaced Baseline, the gauges — are
// TestResidentBaselineDroppedOnFailure in internal/campaign.)
func TestWorkerCacheDropsFailedShard(t *testing.T) {
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
	rungs := func() float64 { return reg.Gauge("campaign_spine_rungs").Value() }
	// run executes a shard and demands that it ran at most (first) or
	// exactly (not first) want golden runs: the first shard of an app finds
	// it resident when another test left it so.
	run := func(a *Assignment, want uint64, first bool) {
		t.Helper()
		g := goldens()
		if err := w.runShard(a, nil); err != nil {
			t.Fatal(err)
		}
		if got := goldens() - g; got > want || !first && got != want {
			t.Fatalf("a %s shard ran %d golden runs, want %d", a.Spec.App, got, want)
		}
	}
	run(shard("kmeans"), 1, true)
	run(shard("kmeans"), 0, false)
	run(shard("bfs"), 1, true)
	run(shard("bfs"), 0, false)
	held := rungs()
	if held == 0 {
		t.Fatal("kmeans and bfs shards left no spine rung in the process")
	}

	// An error: the shard's window is outside its campaign.
	bad := shard("kmeans")
	bad.Hi = 99
	if err := w.runShard(bad, nil); err == nil {
		t.Fatal("a shard past its campaign's runs succeeded")
	}
	if r := rungs(); r >= held {
		t.Errorf("the spine gauge reads %v rungs after the failed kmeans shard, %v before: its spine stayed", r, held)
	}
	run(shard("kmeans"), 1, false)
	run(shard("bfs"), 0, false)

	// A panic, from an engine the test replaces for one shard.
	w.cfg.RunShard = func(*Assignment) error { panic("poisoned") }
	if err := w.runShard(shard("bfs"), nil); err == nil || err.Error() != "panic: poisoned" {
		t.Fatalf("a panicking shard returned %v", err)
	}
	w.cfg.RunShard = nil

	// An error before there is a baseline: no such app.
	if err := w.runShard(shard("nosuchapp"), nil); err == nil {
		t.Fatal("an unknown app ran")
	}
	run(shard("kmeans"), 0, false)
	run(shard("bfs"), 0, false)

	// The exported call runs a cold shard: a golden run each, and the
	// process's kmeans baseline stays as it was.
	before := goldens()
	for i := 0; i < 2; i++ {
		if err := ExecuteShard(shard("kmeans"), nil, reg); err != nil {
			t.Fatal(err)
		}
	}
	if g := goldens(); g != before+2 {
		t.Errorf("two ExecuteShard calls ran %d golden runs, want one each", g-before)
	}
	run(shard("kmeans"), 0, false)
}

// TestWorkerSpineOutlivesTheShard: ten 40-run matvec campaigns, four shards
// each, through one worker. Before baselines were kept the golden run was
// walked once per shard and paused at every site — a prefix run per run, 400.
// The process's baseline keeps its spine: each position of a targeted rank is
// built once, by whichever shard reaches it first, a shard after that builds a
// rung only where two of its ten sites share a stretch, and the prefix runs
// stop tracking the runs.
func TestWorkerSpineOutlivesTheShard(t *testing.T) {
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
	if rungs == 0 {
		t.Error("the spine gauge reads no rung")
	}
	// Ten sites a shard over the spine's stretches: a handful share one.
	// Half the runs is far above that and far below one a run.
	if prefixes > runs/2 {
		t.Errorf("%d prefix runs for %d runs: the ladder is being rebuilt per shard", prefixes, runs)
	}
	if g, h := count("campaign_golden_runs_total"), count("campaign_baseline_hits_total"); g > 1 || g+h != 40 {
		t.Errorf("%d golden runs and %d baseline hits over 40 shards of one app, want at most one golden run", g, h)
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
// the same name: a prefix run that fails on a Baseline — whose instruction
// budget is lowered behind Prepare's back, which no Config can do — fails the
// shard through the Worker's own path, and the reason names the prefix site.
// (That such a Baseline leaves the process's resident ones is
// TestResidentBaselineDroppedOnFailure in internal/campaign.)
func TestPrefixFailureFailsTheShard(t *testing.T) {
	reg := obs.NewRegistry()
	ctl := &failControl{}
	w := NewWorker(WorkerConfig{Name: "w", Control: ctl, Obs: reg, Logf: func(string, ...any) {}})
	app, err := apps.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{App: "matvec", Runs: 8, Seed: 5, Shards: 1, Trace: true, Parallel: 2}.normalize()
	base, err := campaign.Prepare(campaignConfig(sp, app, 0))
	if err != nil {
		t.Fatal(err)
	}
	f := reflect.ValueOf(base).Elem().FieldByName("maxInstr")
	reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().SetUint(1)
	w.cfg.RunShard = func(a *Assignment) error {
		cfg := campaignConfig(a.Spec, app, a.NSBase)
		cfg.Shard = &campaign.ShardRange{Lo: a.Lo, Hi: a.Hi}
		cfg.Journal = a.Journal
		_, err := base.Run(cfg)
		return err
	}
	w.execute(&Assignment{Token: "t", Spec: sp, Lo: 0, Hi: sp.Runs, TTLMs: 60_000,
		Journal: filepath.Join(t.TempDir(), "shard.journal")})
	if len(ctl.failed) != 1 || len(ctl.completed) != 0 || !strings.Contains(ctl.failed[0], "campaign: prefix run to (rank 0, n ") {
		t.Fatalf("shard reported failed %q, completed %q; want one failure naming a prefix site", ctl.failed, ctl.completed)
	}
	if n := reg.Counter("worker_shards_failed_total").Value(); n != 1 {
		t.Errorf("worker_shards_failed_total = %d, want 1", n)
	}
}

// TestWorkerCachePoolSharesBaselines: two workers of one process execute the
// shards of interleaved matvec and bfs campaigns at once. The process
// prepares at most one baseline per app — whichever worker claims its first
// shard, the other waiting for it — and every other shard finds it resident.
// Every merged report is the standalone campaign's. Then a shard that fails
// on one worker drops its app's baseline, while the other worker finishes the
// shard it is running on the old one, as a cold shard would. (That the pool
// builds a spine once, and that a late failure on the old baseline does not
// drop the new, are TestResidentBaselineColdKeyRace and
// TestResidentBaselineDroppedOnFailure in internal/campaign.)
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
	reg := obs.NewRegistry()
	queue := make(chan Assignment)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := quietWorker(reg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				if err := w.runShard(&a, nil); err != nil {
					t.Errorf("campaign %s shard %d: %v", a.Campaign, a.Shard, err)
				}
			}
		}()
	}
	for shard := 0; shard < 4; shard++ {
		for c, sp := range specs {
			lo, hi := sp.shardRange(shard)
			queue <- Assignment{Campaign: fmt.Sprint(c), Shard: shard, Lo: lo, Hi: hi, Spec: sp, Journal: journal("pool", c, shard)}
		}
	}
	close(queue)
	wg.Wait()
	if t.Failed() {
		return
	}
	count := func(name string) uint64 { return reg.Counter(name).Value() }
	shards := uint64(4 * len(specs))
	if g, h := count("campaign_golden_runs_total"), count("campaign_baseline_hits_total"); g > 2 || g+h != shards {
		t.Errorf("two workers over two apps: %d golden runs, %d baseline hits over %d shards; want at most one golden run an app", g, h, shards)
	}
	if reg.Gauge("campaign_spine_rungs").Value() == 0 {
		t.Error("the pool left no spine rung")
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
		if want := freshCampaign(t, cfg); merged.Report() != want.Report() {
			t.Errorf("campaign %d (%s): merged report of the pool's shards\n%s\nstandalone\n%s", c, sp.App, merged.Report(), want.Report())
		}
	}

	// A long matvec shard runs on one worker while a matvec shard fails on
	// the other.
	long := Spec{App: "matvec", Runs: 120, Seed: 77, Shards: 1, Trace: true, Parallel: 1}.normalize()
	longShard := Assignment{Campaign: "long", Lo: 0, Hi: long.Runs, Spec: long, Journal: journal("long", 0, 0)}
	hits := count("campaign_baseline_hits_total")
	done := make(chan error, 1)
	go func() { done <- quietWorker(reg).runShard(&longShard, nil) }()
	for count("campaign_baseline_hits_total") == hits { // until the long shard holds the old baseline
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
	goldens := count("campaign_golden_runs_total")
	next := Assignment{Campaign: "next", Lo: 0, Hi: 6, Spec: specs[0], Journal: journal("next", 0, 0)}
	if err := other.runShard(&next, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("the long shard on the old baseline: %v", err)
	}
	if g := count("campaign_golden_runs_total") - goldens; g != 1 {
		t.Errorf("the shard after the failure ran %d golden runs, want a fresh baseline's one", g)
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
