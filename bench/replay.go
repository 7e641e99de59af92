package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"chaser/internal/campaign"
	"chaser/internal/core"
	"chaser/internal/isa"
	"chaser/internal/mpi"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
	"chaser/internal/tainthub/codec"
	"chaser/internal/tcg"
	"chaser/internal/vm"
)

// The stage replay calls each layer's public functions directly on the
// workload's own program, after the traced rounds. Spans around the rounds
// say where a campaign waits; they cannot look inside campaign.Run, so the
// interpreter, translator, fork and taint numbers come from here.

// timeOnce returns f's wall time in seconds.
func timeOnce(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// timeEach calls f n times and returns each call's seconds.
func timeEach(n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = timeOnce(f)
	}
	return out
}

// timePairs alternates a and b n times, so drift in the machine's speed
// lands on both sides, and returns each side's seconds.
func timePairs(n int, a, b func()) (as, bs []float64) {
	for i := 0; i < n; i++ {
		as = append(as, timeOnce(a))
		bs = append(bs, timeOnce(b))
	}
	return as, bs
}

// pairRatio is the median of as[i]/bs[i]: the two sides of a pair run
// within milliseconds of each other, so a slow spell of the host cancels in
// the pair's ratio where it would not in a ratio of medians.
func pairRatio(as, bs []float64) float64 {
	ratios := make([]float64, len(as))
	for i := range as {
		ratios[i] = as[i] / bs[i]
	}
	return median(ratios)
}

// staged collects the first error of a sequence of measurements, so the
// replay reads as a list of measurements rather than of error checks.
type staged struct{ err error }

func (s *staged) run(what string, f func() error) {
	if s.err != nil {
		return
	}
	if err := f(); err != nil {
		s.err = fmt.Errorf("stage replay: %s: %w", what, err)
	}
}

// goldenRun is one uninjected supervised run.
func goldenRun(g guest, cache *tcg.BaseCache) (*core.RunResult, error) {
	res, err := core.Run(core.RunConfig{Prog: g.prog, WorldSize: g.world, BaseCache: cache})
	if err == nil {
		if r := res.FirstAbnormal(); r >= 0 {
			err = fmt.Errorf("golden run of %s: rank %d: %s", g.name, r, res.Terms[r])
		}
	}
	return res, err
}

// warmCache returns a base cache a golden run has filled.
func warmCache(g guest) (*tcg.BaseCache, *core.RunResult, error) {
	cache := tcg.NewBaseCache(g.prog)
	res, err := goldenRun(g, cache)
	return cache, res, err
}

// identitySpec injects the original value (and, tracing, seeds taint) at the
// thousandth targeted execution: every step of an injection, no change of
// control flow, so timings compare like with like.
func identitySpec(g guest, traced bool) *core.Spec {
	return &core.Spec{
		Target: g.prog.Name, Ops: g.ops, TargetRank: g.rank,
		Cond: core.Deterministic{N: 1000}, Inj: core.IdentityInjector{Bits: 8}, Seed: 3, Trace: traced,
	}
}

// traceOverhead is the Fig. 10 ratio over the workload's programs: the time
// of an identity-injector traced run of each over the time of a golden run
// of each, median of alternating pairs.
func traceOverhead(guests []guest, pairs int) (float64, error) {
	caches := make([]*tcg.BaseCache, len(guests))
	for i, g := range guests {
		var err error
		if caches[i], _, err = warmCache(g); err != nil {
			return 0, err
		}
	}
	var runErr error
	all := func(spec func(guest) *core.Spec) func() {
		return func() {
			for i, g := range guests {
				_, err := core.Run(core.RunConfig{Prog: g.prog, WorldSize: g.world, BaseCache: caches[i], Spec: spec(g)})
				if err != nil {
					runErr = err
				}
			}
		}
	}
	traced, golden := timePairs(pairs,
		all(func(g guest) *core.Spec { return identitySpec(g, true) }),
		all(func(guest) *core.Spec { return nil }))
	return pairRatio(traced, golden), runErr
}

// staticBlocks lists the program's block leaders: the entry, every branch
// target and every fall-through after a branch or syscall.
func staticBlocks(prog *isa.Program) []uint64 {
	seen := map[uint64]bool{prog.Entry: true}
	leaders := []uint64{prog.Entry}
	add := func(pc uint64) {
		if _, ok := prog.InstrAt(pc); ok && !seen[pc] {
			seen[pc] = true
			leaders = append(leaders, pc)
		}
	}
	for idx, ins := range prog.Code {
		pc := isa.CodeBase + uint64(idx)*isa.InstrSize
		if ins.Op.IsBranch() && ins.Op != isa.OpRet && ins.Op != isa.OpHlt {
			add(uint64(ins.Imm))
		}
		if ins.Op.IsBranch() || ins.Op == isa.OpSyscall {
			add(pc + isa.InstrSize)
		}
	}
	return leaders
}

// randomSpec is a traced one-bit injection at the n-th targeted execution.
func randomSpec(g guest, n uint64, seed int64) *core.Spec {
	return &core.Spec{
		Target: g.prog.Name, Ops: g.ops, TargetRank: g.rank,
		Cond: core.Deterministic{N: n}, Bits: 1, Seed: seed, Trace: true,
	}
}

// replayProgram measures the layers below the campaign on g and writes the
// metrics into out. observed are run results the rounds' RunObserver kept;
// it returns them with the replay's own added, and the golden outputs.
func replayProgram(g guest, observed []observedRun, forks bool, n int, seed int64, out map[string]float64) ([][]byte, []observedRun, error) {
	var st staged
	var cache *tcg.BaseCache
	var golden *core.RunResult
	var instrs, sites uint64
	st.run("golden run", func() (err error) {
		cache, golden, err = warmCache(g)
		if err != nil {
			return err
		}
		for _, c := range golden.Counters {
			instrs += c.Instructions
		}
		for _, op := range g.ops {
			sites += golden.Counters[g.rank].PerOp[op]
		}
		return nil
	})

	st.run("tcg", func() error {
		leaders := staticBlocks(g.prog)
		var err error
		passes := timeEach(n, func() {
			tr := tcg.NewTranslator(g.prog)
			for _, pc := range leaders {
				if _, e := tr.Block(pc); e != nil {
					err = e
				}
			}
		})
		out["tcg.translate_us_per_block"] = median(passes) / float64(len(leaders)) * 1e6
		if err != nil {
			return err
		}
		var translated [2]float64
		for i, private := range []bool{false, true} {
			reg := obs.NewRegistry()
			cfg := g.config(20, seed)
			cfg.NoSharedCache, cfg.Obs = private, reg
			if _, err := campaign.Run(cfg); err != nil {
				return err
			}
			translated[i] = float64(reg.Counter("tcg_translations_total").Value())
		}
		out["tcg.private_over_shared_x"] = translated[1] / translated[0]
		return nil
	})

	st.run("vm loops", func() error {
		// A never-firing traced spec turns taint tracking on without ever
		// tainting anything: with NoFastPath every block then runs the full
		// taint-aware loop, as every block after a fault does.
		never := randomSpec(g, 1<<62, 1)
		var err error
		fast, full := timePairs(n,
			func() { _, err = core.Run(core.RunConfig{Prog: g.prog, WorldSize: g.world, BaseCache: cache}) },
			func() {
				_, err = core.Run(core.RunConfig{Prog: g.prog, WorldSize: g.world, BaseCache: cache, NoFastPath: true, Spec: never})
			})
		out["vm.fast_minstr_per_s"] = float64(instrs) / median(fast) / 1e6
		out["vm.full_minstr_per_s"] = float64(instrs) / median(full) / 1e6
		out["vm.fast_over_full_x"] = pairRatio(full, fast)
		out["core.golden_warm_ms"] = median(fast) * 1e3
		out["vm.new_us"] = median(timeEach(200, func() { vm.New(g.prog, vm.Config{BaseCache: cache}) })) * 1e6
		return err
	})

	st.run("core", func() error {
		var err error
		cold := timeEach(n/2+1, func() { _, err = goldenRun(g, tcg.NewBaseCache(g.prog)) })
		out["core.golden_cold_ms"] = median(cold) * 1e3
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed))
		var secs []float64
		for i := 0; i < 2*n; i++ {
			spec := randomSpec(g, 1+uint64(rng.Int63n(int64(sites))), rng.Int63())
			var res *core.RunResult
			secs = append(secs, timeOnce(func() {
				res, err = core.Run(core.RunConfig{Prog: g.prog, WorldSize: g.world, BaseCache: cache, Spec: spec})
			}))
			if err != nil {
				return err
			}
			observed = append(observed, observedRun{g.rank, res})
		}
		out["core.injected_run_p50_ms"] = median(secs) * 1e3

		withTrace, without := timePairs(n,
			func() {
				_, err = core.Run(core.RunConfig{Prog: g.prog, WorldSize: g.world, BaseCache: cache, Spec: identitySpec(g, true)})
			},
			func() {
				_, err = core.Run(core.RunConfig{Prog: g.prog, WorldSize: g.world, BaseCache: cache, Spec: identitySpec(g, false)})
			})
		out["taint.trace_over_inject_x"] = pairRatio(withTrace, without)
		if err != nil {
			return err
		}

		reg := obs.NewRegistry()
		on, off := timePairs(n,
			func() {
				_, err = core.Run(core.RunConfig{Prog: g.prog, WorldSize: g.world, BaseCache: cache, Obs: reg})
			},
			func() { _, err = core.Run(core.RunConfig{Prog: g.prog, WorldSize: g.world, BaseCache: cache}) })
		out["obs.enabled_overhead_pct"] = (pairRatio(on, off) - 1) * 100
		return err
	})

	st.run("classify and provenance", func() error {
		var classify, provenance []float64
		for _, o := range observed {
			classify = append(classify, timeOnce(func() { campaign.Classify(o.res, golden.Outputs, o.rank) }))
			provenance = append(provenance, timeOnce(func() { o.res.Provenance() }))
		}
		out["campaign.classify_us"] = median(classify) * 1e6
		out["trace.provenance_ms"] = median(provenance) * 1e3
		return nil
	})

	if g.world > 1 {
		st.run("mpi world", func() error {
			var err error
			secs := timeEach(n, func() {
				var w *mpi.World
				w, err = mpi.NewWorld(g.prog, mpi.Config{
					Size:    g.world,
					Machine: func(int) vm.Config { return vm.Config{BaseCache: cache} },
				})
				if err == nil {
					w.Run()
				}
			})
			out["mpi.golden_world_ms"] = median(secs) * 1e3
			return err
		})
	} else {
		st.run("snapshot and fork", func() error { return replayFork(g, cache, sites*9/10, forks, n, seed, out) })
	}
	if st.err != nil {
		return nil, nil, st.err
	}
	return golden.Outputs, observed, nil
}

// replayFork measures the fork path on a serial guest paused at site:
// machine snapshot and fork directly on the vm, prefix and forked run
// through core, and (on the workload that forks) the PR 7 campaign arm.
func replayFork(g guest, cache *tcg.BaseCache, site uint64, campaignArm bool, n int, seed int64, out map[string]float64) error {
	targets := make(map[isa.Op]bool)
	for _, op := range g.ops {
		targets[op] = true
	}
	// paused runs a fresh machine up to the site-th targeted execution, the
	// way core's pause injector does.
	paused := func() (*vm.Machine, error) {
		m := vm.New(g.prog, vm.Config{BaseCache: cache})
		var execs uint64
		helper := m.RegisterHelper(func(m *vm.Machine, op *tcg.Op) {
			if execs++; execs == site {
				m.PauseAt(op.GuestPC)
			}
		})
		m.Trans.AddHook(func(ins isa.Instr, _ uint64) []tcg.Op {
			if !targets[ins.Op] {
				return nil
			}
			return []tcg.Op{{Kind: tcg.KHelper, Helper: helper}}
		})
		if term := m.Run(); term.Reason != vm.ReasonPaused {
			return nil, fmt.Errorf("%s did not pause at site %d: %s", g.name, site, term)
		}
		return m, nil
	}
	var snaps []float64
	var snap *vm.Snapshot
	for i := 0; i < n; i++ {
		m, err := paused()
		if err != nil {
			return err
		}
		// The first snapshot of a machine seals its pages; later ones find
		// them sealed, so each sample gets a fresh machine.
		snaps = append(snaps, timeOnce(func() { snap, err = m.Snapshot() }))
		if err != nil {
			return err
		}
	}
	out["vm.snapshot_us"] = median(snaps) * 1e6
	out["vm.fork_us"] = median(timeEach(200, func() { vm.NewFromSnapshot(g.prog, snap, vm.Config{BaseCache: cache}) })) * 1e6

	rc := core.RunConfig{Prog: g.prog, WorldSize: 1, BaseCache: cache, Spec: randomSpec(g, site, seed)}
	var ws *core.WorldSnapshot
	var err error
	prefix := timeEach(n/3+1, func() { ws, err = core.PrefixRun(rc, core.ForkSite{Rank: g.rank, N: site}) })
	if err != nil {
		return err
	}
	out["core.prefix_ms"] = median(prefix) * 1e3
	forked := timeEach(3*n, func() { _, err = core.RunForked(rc, ws) })
	out["core.forked_run_p50_ms"] = median(forked) * 1e3
	if err != nil || !campaignArm {
		return err
	}

	arm := func(noFork bool) func() {
		return func() {
			cfg := g.config(40, seed)
			cfg.InjectExec, cfg.NoFork = site, noFork
			_, err = campaign.Run(cfg)
		}
	}
	scratch, fork := timePairs(n/5+1, arm(true), arm(false))
	out["campaign.fork_over_scratch_x"] = pairRatio(scratch, fork)
	return err
}

// replayHub measures the hub layer of a service session: client-side RPC
// latency by replaying round 0's first campaign in process against the live
// hub through the timing seam, and the PR 10 wire arms on a fresh hub.
func replayHub(g guest, runs int, hubAddr string, t *tracing, n int, seed int64, out map[string]float64) error {
	reg := obs.NewRegistry()
	client, err := tainthub.DialConfig(hubAddr, tainthub.ClientConfig{MaxAttempts: 12, Obs: reg})
	if err != nil {
		return err
	}
	defer client.Close()
	cfg := g.config(runs, seed)
	cfg.Hub = timedHub{hub: client, t: t}
	// Far above any namespace chaserd hands out during the rounds.
	cfg.HubNamespaceBase = 1 << 40
	cfg.RunObserver = t.observer
	if _, err := campaign.Run(cfg); err != nil {
		return fmt.Errorf("stage replay: hub campaign: %w", err)
	}
	out["tainthub.rpc_retries"] = float64(reg.Counter("hub_rpc_retries_total").Value())

	for _, arm := range []struct {
		metric string
		cfg    tainthub.ClientConfig
	}{
		{"tainthub.json_rpc_per_s", tainthub.ClientConfig{Wire: codec.FormatJSON, MaxBatch: 1, MaxInflight: 1}},
		{"tainthub.binary_rpc_per_s", tainthub.ClientConfig{Wire: codec.FormatBinary}},
	} {
		rate, err := hubWireRate(arm.cfg, time.Duration(n)*25*time.Millisecond)
		if err != nil {
			return fmt.Errorf("stage replay: %s: %w", arm.metric, err)
		}
		out[arm.metric] = rate
	}
	return nil
}

// hubWireRate drives publish+poll pairs of a sparse 4 KiB mask (the shape
// campaigns publish) from eight callers at a fresh in-memory hub for d and
// returns RPCs per second — BenchmarkHubWire's load.
func hubWireRate(cfg tainthub.ClientConfig, d time.Duration) (float64, error) {
	srv, err := tainthub.NewServerConfig(tainthub.NewLocal(), "127.0.0.1:0", tainthub.ServerConfig{Logf: quiet})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	client, err := tainthub.DialConfig(srv.Addr(), cfg)
	if err != nil {
		return 0, err
	}
	defer client.Close()
	masks := make([]uint8, 4096)
	for _, i := range []int{3, 64, 65, 66, 1500, 4090} {
		masks[i] = 0x80 >> (i % 8)
	}
	var mu sync.Mutex
	var firstErr error
	var rpcs int
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := tainthub.NewClientID()
			var seq uint64
			n := 0
			for i := 0; time.Since(start) < d; i++ {
				k := tainthub.Key{Src: w, Dst: w + 1, Tag: i}
				seq += 2
				err := client.Publish(tainthub.ReqID{Client: id, Seq: seq - 1}, k, uint64(i), masks)
				if err == nil {
					_, _, err = client.Poll(tainthub.ReqID{Client: id, Seq: seq}, k, uint64(i))
				}
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				n += 2
			}
			mu.Lock()
			rpcs += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return float64(rpcs) / time.Since(start).Seconds(), firstErr
}

// replayJournal times the campaign journal on a service workload: appends
// of observed outcomes to a fresh journal, and the merge of the first
// campaign's shard journals as the scheduler performs it.
func replayJournal(spec campaign.Config, journals []string, dir string, observed []observedRun, golden [][]byte, n int, out map[string]float64) error {
	j, err := campaign.CreateJournal(filepath.Join(dir, "replay.jsonl"), spec)
	if err != nil {
		return err
	}
	var appends []float64
	for i, o := range observed {
		outcome := campaign.Classify(o.res, golden, o.rank)
		appends = append(appends, timeOnce(func() { err = j.Append(i%spec.Runs, outcome) }))
		if err != nil {
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	out["campaign.journal_append_us"] = median(appends) * 1e6
	merges := timeEach(n, func() { _, err = campaign.MergeJournals(spec, nil, journals...) })
	out["campaign.merge_ms"] = median(merges) * 1e3
	return err
}
