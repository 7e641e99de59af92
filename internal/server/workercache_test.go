package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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

// TestWorkerCacheDifferential: one worker executes the shards of eight
// campaigns, two of each of four guests, interleaved so that almost every
// shard meets a baseline another campaign's shard prepared. A warm shard must
// be the cold shard: on every guest — the MPI ones through the durable hub —
// its journal is byte for byte the one cache-less ExecuteShard writes, and the
// merged report is the standalone campaign's.
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
// that panics, take their app's baseline with them, spine and all — the
// requeued (or poisoned) shard that follows starts from a fresh golden run, as
// every shard did before workers kept baselines — and an error is never kept.
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
	run := func(a *Assignment, wantGoldens uint64, wantKept bool) {
		t.Helper()
		if err := w.runShard(a, nil); err != nil {
			t.Fatal(err)
		}
		if g := goldens(); g != wantGoldens {
			t.Fatalf("%d golden runs, want %d", g, wantGoldens)
		}
		if _, kept := w.baselines[a.Spec.App]; kept != wantKept {
			t.Fatalf("baseline kept for %s: %v", a.Spec.App, kept)
		}
	}
	// The spine gauges read what the kept baselines hold between them.
	spine := func() (rungs, bytes float64) {
		return reg.Gauge("campaign_spine_rungs").Value(), reg.Gauge("campaign_spine_bytes").Value()
	}
	run(shard("kmeans"), 1, true)
	run(shard("kmeans"), 1, true)
	kmRungs, kmBytes := spine()
	if kmRungs == 0 || kmBytes == 0 {
		t.Fatalf("two kmeans shards left a spine of %v rungs, %v bytes", kmRungs, kmBytes)
	}
	run(shard("bfs"), 2, true)
	allRungs, allBytes := spine()
	if allRungs <= kmRungs {
		t.Fatalf("a bfs shard added no spine rung: %v, was %v", allRungs, kmRungs)
	}

	// An error: the shard's window is outside its campaign.
	bad := shard("kmeans")
	bad.Hi = 99
	if err := w.runShard(bad, nil); err == nil {
		t.Fatal("a shard past its campaign's runs succeeded")
	}
	if _, kept := w.baselines["kmeans"]; kept {
		t.Fatal("a failed shard left its app's baseline behind")
	}
	if _, kept := w.baselines["bfs"]; !kept {
		t.Fatal("a failed kmeans shard dropped bfs's baseline")
	}
	bfsRungs, bfsBytes := allRungs-kmRungs, allBytes-kmBytes
	if r, b := spine(); r != bfsRungs || b != bfsBytes {
		t.Fatalf("the spine did not go with the dropped baseline: %v rungs, %v bytes, want bfs's %v and %v", r, b, bfsRungs, bfsBytes)
	}
	prefixes := reg.Counter("campaign_prefix_runs_total").Value()
	run(shard("kmeans"), 3, true)
	allRungs, allBytes = spine()
	if allRungs <= bfsRungs || reg.Counter("campaign_prefix_runs_total").Value() == prefixes {
		t.Fatalf("the fresh kmeans baseline built no spine of its own: %v rungs in all", allRungs)
	}

	// A panic, from an engine the test replaces for one shard.
	w.cfg.RunShard = func(*Assignment) error { panic("poisoned") }
	if err := w.runShard(shard("bfs"), nil); err == nil || err.Error() != "panic: poisoned" {
		t.Fatalf("a panicking shard returned %v", err)
	}
	w.cfg.RunShard = nil
	if _, kept := w.baselines["bfs"]; kept {
		t.Fatal("a panicking shard left its app's baseline behind")
	}
	if r, b := spine(); r != allRungs-bfsRungs || b != allBytes-bfsBytes {
		t.Fatalf("a panicking bfs shard left %v spine rungs, %v bytes, want kmeans's %v and %v", r, b, allRungs-bfsRungs, allBytes-bfsBytes)
	}
	run(shard("bfs"), 4, true)
	allRungs, allBytes = spine()

	// An error before there is a baseline keeps nothing: no such app.
	if err := w.runShard(shard("nosuchapp"), nil); err == nil {
		t.Fatal("an unknown app ran")
	}
	if len(w.baselines) != 2 {
		t.Fatalf("%d baselines kept, want kmeans and bfs", len(w.baselines))
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
	if r, b := spine(); r != allRungs || b != allBytes {
		t.Errorf("two ExecuteShard calls left the spine gauges at %v rungs, %v bytes, were %v and %v", r, b, allRungs, allBytes)
	}
	var heldRungs int
	var heldBytes int64
	for _, base := range w.baselines {
		r, b := base.SpineSize()
		heldRungs, heldBytes = heldRungs+r, heldBytes+b
	}
	if r, b := spine(); r != float64(heldRungs) || b != float64(heldBytes) {
		t.Errorf("the spine gauges read %v rungs, %v bytes; the kept baselines hold %d and %d", r, b, heldRungs, heldBytes)
	}
}

// TestWorkerSpineOutlivesTheShard: ten 40-run matvec campaigns, four shards
// each, through one worker. The parent commit walked the golden run once per
// shard and paused it at every site — a prefix run per run, 400. A kept
// baseline keeps its spine: the 7 positions of each targeted rank are built
// once by whichever shard reaches them first, a shard after that builds a rung
// only where two of its ten sites share a stretch, and the prefix runs stop
// tracking the runs.
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
	rungs, skipped := reg.Gauge("campaign_spine_rungs").Value(), count("campaign_spine_positions_skipped_total")
	t.Logf("%d runs, %d prefix runs (%d in the first campaign), spine %v rungs + %d skipped, %d forked, %d fallbacks",
		runs, prefixes, afterFirst, rungs, skipped, count("campaign_forked_runs_total"), count("campaign_fork_fallbacks_total"))
	if runs != 400 {
		t.Fatalf("%d runs started, want 400", runs)
	}
	app, err := apps.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	ranks := 1
	if app.TargetRank < 0 {
		ranks = app.WorldSize
	}
	if spine := uint64(rungs) + skipped; spine == 0 || spine > uint64(7*ranks) {
		t.Errorf("the spine decided %d positions over %d targeted ranks, want at most 7 each", spine, ranks)
	}
	// Ten sites over eight stretches: a handful share one. Half the runs is
	// far above that and far below the parent's one a run.
	if prefixes > runs/2 {
		t.Errorf("%d prefix runs for %d runs: the ladder is being rebuilt per shard", prefixes, runs)
	}
	if g := count("campaign_golden_runs_total"); g != 1 {
		t.Errorf("campaign_golden_runs_total = %d, want 1", g)
	}
}
