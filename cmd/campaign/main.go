// Command campaign regenerates every table and figure of the paper's
// evaluation (Section IV) against the simulated testbed.
//
// Usage:
//
//	campaign -experiment all
//	campaign -experiment fig6 -runs 3000
//	campaign -experiment table3 -runs 5000
//	campaign -experiment fig7
//	campaign -experiment fig10
//
// Run counts default to quick settings; raise -runs toward the paper's
// 3000-5000 for statistically tighter numbers.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"chaser/internal/apps"
	"chaser/internal/campaign"
	"chaser/internal/core"
	"chaser/internal/injectors"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/obs"
	"chaser/internal/server"
	"chaser/internal/tainthub"
	"chaser/internal/tainthub/codec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

type options struct {
	runs     int
	seed     int64
	parallel int
	bits     int
	csvDir   string

	obs         *obs.Registry
	tracer      *obs.Tracer
	progress    bool
	observatory *campaign.Observatory

	// Fields of the fault-tolerant "run" experiment.
	app        string
	journal    string
	runTimeout time.Duration
	hubAddr    string
	hubPolicy  core.HubPolicy
	hubWire    codec.Format

	// Checkpoint-ladder knobs (run and sweep experiments).
	injectExec uint64
	noFork     bool

	// Control-plane client fields (submit and watch experiments).
	chaserd    string
	campaignID string
	shards     int
	tenant     string
}

// instrument attaches the process-wide telemetry sinks to one campaign
// config; a no-op when no -metrics-out/-trace-out/-progress flag was given.
func (o options) instrument(cfg campaign.Config) campaign.Config {
	cfg.Obs = o.obs
	cfg.Tracer = o.tracer
	if o.progress {
		name := cfg.Name
		cfg.Progress = func(p campaign.ProgressInfo) {
			fmt.Fprintf(os.Stderr,
				"[%s] %d/%d runs, %.1f runs/s, benign=%d sdc=%d detected=%d terminated=%d, elapsed=%s\n",
				name, p.Done, p.Total, p.RunsPerSec,
				p.Benign, p.SDC, p.Detected, p.Terminated, p.Elapsed.Round(100*time.Millisecond))
		}
	}
	if o.observatory != nil {
		cfg = o.observatory.Instrument(cfg)
	}
	return cfg
}

// writeTelemetry flushes the collected metrics and trace to the requested
// files. A ".json" metrics path selects the JSON snapshot; anything else gets
// Prometheus text exposition. The trace file is Chrome trace-event JSON,
// loadable in chrome://tracing or Perfetto.
func writeTelemetry(o options, metricsPath, tracePath string) error {
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if strings.HasSuffix(metricsPath, ".json") {
			err = o.obs.WriteJSON(f)
		} else {
			err = o.obs.WritePrometheus(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		err = o.tracer.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		if n := o.tracer.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "campaign: warning: %d trace spans dropped (recorder full)\n", n)
		}
	}
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	exp := fs.String("experiment", "all", "table1|table2|table3|fig6|fig7|fig8|fig9|fig10|sweep|perop|json|run|all")
	runs := fs.Int("runs", 400, "injection runs per application")
	seed := fs.Int64("seed", 20200355, "campaign seed")
	parallel := fs.Int("parallel", 0, "parallel workers (0 = GOMAXPROCS)")
	bits := fs.Int("bits", 1, "bits flipped per injection")
	csvDir := fs.String("csv", "", "also write per-run outcome CSVs (fig6) into this directory")
	metricsOut := fs.String("metrics-out", "", "write metrics on exit (.json suffix = JSON snapshot, otherwise Prometheus text)")
	metricsAddr := fs.String("metrics-addr", "", "serve the live observatory dashboard (/metrics /progress /runs /events) on this address")
	hold := fs.Duration("hold", 0, "keep serving the dashboard this long after the experiments finish (requires -metrics-addr)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON file on exit (chrome://tracing / Perfetto)")
	progress := fs.Bool("progress", false, "print live campaign progress to stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile on exit to this file")
	appName := fs.String("app", "matvec", "application for -experiment run")
	journal := fs.String("journal", "", "checkpoint journal for -experiment run (written as runs complete; an existing one is resumed)")
	runTimeout := fs.Duration("run-timeout", 0, "wall-clock watchdog per run (0 = no watchdog)")
	injectExec := fs.Uint64("inject-exec", 0, "pin every run's injection to this execution count of the targeted ops (0 = random per run)")
	noFork := fs.Bool("no-fork", false, "replay the golden prefix in every run instead of forking from the checkpoint ladder (reference path; same output)")
	hubAddr := fs.String("hub", "", "shared TaintHub server address (default: in-process hub)")
	hubPolicy := fs.String("hub-policy", "degrade", "on hub failure or a lost taint: degrade (proceed untainted) | fail (fail the run)")
	hubWire := fs.String("wire", "auto", "hub wire format: auto (binary) | json | binary")
	chaserdAddr := fs.String("chaserd", "", "chaserd control-plane URL for -experiment submit/watch (comma-separated peers for an HA pair; the client fails over)")
	campaignID := fs.String("campaign", "", "campaign ID for -experiment watch")
	shards := fs.Int("shards", 0, "shard count for -experiment submit (0 = server default)")
	tenant := fs.String("tenant", "", "tenant namespace for -experiment submit (empty = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy := core.HubDegrade
	switch *hubPolicy {
	case "degrade":
	case "fail":
		policy = core.HubFailRun
	default:
		return fmt.Errorf("unknown -hub-policy %q (want degrade or fail)", *hubPolicy)
	}
	wireFmt, err := codec.ParseFormat(*hubWire)
	if err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "campaign: writing heap profile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "campaign: writing heap profile:", err)
			}
		}()
	}
	o := options{
		runs: *runs, seed: *seed, parallel: *parallel, bits: *bits, csvDir: *csvDir,
		progress: *progress,
		app:      *appName, journal: *journal,
		runTimeout: *runTimeout, hubAddr: *hubAddr, hubPolicy: policy, hubWire: wireFmt,
		injectExec: *injectExec, noFork: *noFork,
		chaserd: *chaserdAddr, campaignID: *campaignID, shards: *shards, tenant: *tenant,
	}
	if *metricsOut != "" || *metricsAddr != "" {
		o.obs = obs.NewRegistry()
	}
	if *traceOut != "" {
		o.tracer = obs.NewTracer(0)
	}
	if *metricsAddr != "" {
		o.observatory = campaign.NewObservatory(o.obs, obs.NewSink(0), 0)
		lis, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("observatory listener: %w", err)
		}
		hsrv := &http.Server{Handler: o.observatory}
		go func() {
			if err := hsrv.Serve(lis); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "campaign: observatory server:", err)
			}
		}()
		// Graceful teardown: Observatory.Shutdown releases SSE streams and
		// parked long-polls (which would otherwise pin connections past any
		// HTTP drain), then Shutdown(ctx) lets in-flight responses finish.
		defer func() {
			o.observatory.Shutdown()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := hsrv.Shutdown(ctx); err != nil {
				hsrv.Close()
			}
		}()
		fmt.Fprintf(os.Stderr, "campaign: observatory on http://%s/\n", lis.Addr())
	}

	exps := map[string]func(io.Writer, options) error{
		"table1": table1,
		"table2": table2,
		"table3": table3,
		"fig6":   fig6,
		"fig7":   fig7,
		"fig8":   fig89,
		"fig9":   fig89,
		"fig10":  fig10,
		"sweep":  sweep,
		"json":   jsonOut,
		"perop":  perOp,
		"run":    runResumable,
		"submit": submitCampaign,
		"watch":  watchCampaign,
	}
	var runErr error
	if *exp == "all" {
		for _, name := range []string{"table1", "table2", "fig6", "table3", "fig7", "fig8", "fig10"} {
			if err := exps[name](out, o); err != nil {
				runErr = fmt.Errorf("%s: %w", name, err)
				break
			}
			fmt.Fprintln(out)
		}
	} else {
		fn, ok := exps[*exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		runErr = fn(out, o)
	}
	// Telemetry is flushed even when the experiment failed: a partial
	// campaign's metrics are exactly what a post-mortem wants.
	if werr := writeTelemetry(o, *metricsOut, *traceOut); werr != nil && runErr == nil {
		runErr = werr
	}
	if o.observatory != nil {
		o.observatory.Finish()
		if *hold > 0 {
			// Keep the dashboard scrapeable after the last run: CI smoke
			// tests and humans both want to inspect the final state.
			// SIGINT/SIGTERM end the hold early and fall through to the
			// graceful drain above, so connected SSE/long-poll clients get
			// clean stream ends instead of resets.
			fmt.Fprintf(os.Stderr, "campaign: holding the observatory for %s\n", *hold)
			sigc := make(chan os.Signal, 1)
			signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
			select {
			case <-time.After(*hold):
			case sig := <-sigc:
				fmt.Fprintf(os.Stderr, "campaign: %s; draining the observatory\n", sig)
			}
			signal.Stop(sigc)
		}
	}
	return runErr
}

// table1 prints the supported fault models (definitional).
func table1(out io.Writer, _ options) error {
	fmt.Fprintln(out, "=== Table I: Chaser supported fault models ===")
	rows := []struct{ model, fn string }{
		{"Probabilistic", "fault injection location is based on a predefined probability distribution function"},
		{"Deterministic", "fault injection location is the exact predefined location"},
		{"Group", "multiple faults are injected"},
	}
	for _, r := range rows {
		fmt.Fprintf(out, "%-15s %s\n", r.model, r.fn)
	}
	// Demonstrate that all three are constructible against the live API.
	_ = core.Probabilistic{P: 0.001}
	_ = core.Deterministic{N: 1000}
	_ = core.Group{Start: 1, Every: 10}
	return nil
}

// table2 measures the injectors' lines of code.
func table2(out io.Writer, _ options) error {
	fmt.Fprintln(out, "=== Table II: lines of code to develop injectors ===")
	fmt.Fprintf(out, "%-26s %10s %10s\n", "InjectorName", "LOC(code)", "LOC(raw)")
	for _, row := range injectors.Table2() {
		fmt.Fprintf(out, "%-26s %10d %10d\n", row.Name, row.Lines, row.Raw)
	}
	fmt.Fprintln(out, "(paper: 97 / 100 / 98 lines)")
	return nil
}

// table3 runs the traced Matvec campaign and prints the termination
// breakdown.
func table3(out io.Writer, o options) error {
	app, err := apps.ByName("matvec")
	if err != nil {
		return err
	}
	sum, err := campaign.Run(o.instrument(campaign.Config{
		Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
		Ops: app.DefaultOps, TargetRank: app.TargetRank,
		Runs: o.runs, Bits: o.bits, Seed: o.seed, Trace: true, Parallel: o.parallel,
	}))
	if err != nil {
		return err
	}
	fmt.Fprint(out, sum.TerminationTable())
	fmt.Fprintln(out, "(paper total row: 89.77% / 9.94% / 0.23%; propagation row: 72.77% / 27.23%)")
	return nil
}

// fig6 runs the outcome campaign for every application.
func fig6(out io.Writer, o options) error {
	if fi, err := os.Stat(o.csvDir); o.csvDir != "" && (err != nil || !fi.IsDir()) {
		return fmt.Errorf("-csv %s: not a directory", o.csvDir)
	}
	fmt.Fprintln(out, "=== Fig. 6: fault injection results ===")
	for _, app := range apps.All() {
		sum, err := campaign.Run(o.instrument(campaign.Config{
			Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
			Ops: app.DefaultOps, TargetRank: app.TargetRank,
			Runs: o.runs, Bits: o.bits, Seed: o.seed, Parallel: o.parallel,
			KeepRunOutcomes: o.csvDir != "",
		}))
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		fmt.Fprint(out, sum.Report())
		if o.csvDir != "" {
			path := filepath.Join(o.csvDir, app.Name+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := sum.WriteOutcomesCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "  per-run outcomes written to %s\n", path)
		}
	}
	fmt.Fprintln(out, "(CLAMR paper split: 83.71% detected, 11.89% benign-undetected, 4.38% SDC)")
	return nil
}

// fig7 prints tainted-bytes-vs-instructions curves for two CLAMR cases.
func fig7(out io.Writer, o options) error {
	fmt.Fprintln(out, "=== Fig. 7: tainted bytes during propagation (two CLAMR cases) ===")
	// A longer CLAMR run gives the curves room to evolve.
	prog := lang.MustCompile(apps.CLAMRProgram(64, 60))
	app, err := apps.ByName("clamr")
	if err != nil {
		return err
	}
	// Two reproducible cases with pinned corruption masks: a low-mantissa
	// flip that evades the conservation checker and keeps propagating for
	// the whole run (plateau), and a mid-mantissa flip that the checker
	// catches at a later checkpoint (curve ends at detection).
	for i, cse := range []struct {
		n    uint64
		mask uint64
		note string
	}{
		{400, 1 << 2, "low-mantissa flip, survives the checker"},
		{4000, 1 << 30, "mid-mantissa flip, caught by a checkpoint"},
	} {
		points, res, err := campaign.Timeline(campaign.TimelineConfig{
			Prog: prog, WorldSize: 1, Ops: app.DefaultOps,
			N:    cse.n,
			Inj:  injectors.DeterministicInjector{N: cse.n, Mask: cse.mask},
			Seed: o.seed, SampleInterval: 10_000,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "case %d (inject at execution %d, %s): term=%s\n", i+1, cse.n, cse.note, res.Terms[0])
		for _, p := range points {
			bar := int(p.TaintedBytes / 8)
			if bar > 60 {
				bar = 60
			}
			fmt.Fprintf(out, "  %9d instrs %6d tainted bytes %s\n",
				p.Instrs, p.TaintedBytes, strings.Repeat("*", bar))
		}
	}
	fmt.Fprintln(out, "(paper: curves plateau once the fault stops spreading and can drop to zero when tainted bytes are overwritten with clean data)")
	return nil
}

// fig89 runs the traced CLAMR campaign and prints the tainted read/write
// distributions plus the Section IV-C run accounting.
func fig89(out io.Writer, o options) error {
	app, err := apps.ByName("clamr")
	if err != nil {
		return err
	}
	runs := o.runs
	sum, err := campaign.Run(o.instrument(campaign.Config{
		Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
		Ops: app.DefaultOps, TargetRank: 0,
		Runs: runs, Bits: o.bits, Seed: o.seed, Trace: true, Parallel: o.parallel,
	}))
	if err != nil {
		return err
	}
	fmt.Fprint(out, sum.MemOpsReport())
	fmt.Fprintln(out, "(paper, 2973 runs: 47.1% read-heavy, 3.97% read-only, 14.93% write-only; reads up to ~2500k, writes up to ~12k)")
	return nil
}

// perOp runs traced campaigns and breaks outcomes down by the opcode each
// fault actually hit.
func perOp(out io.Writer, o options) error {
	for _, name := range []string{"lud", "clamr", "matvec"} {
		app, err := apps.ByName(name)
		if err != nil {
			return err
		}
		sum, err := campaign.Run(o.instrument(campaign.Config{
			Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
			Ops: app.DefaultOps, TargetRank: app.TargetRank,
			Runs: o.runs, Bits: o.bits, Seed: o.seed, Trace: true, Parallel: o.parallel,
		}))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprint(out, sum.PerOpReport())
	}
	return nil
}

// jsonOut runs the Fig. 6 campaigns (with tracing) and emits one JSON
// summary per application, for external plotting tools.
func jsonOut(out io.Writer, o options) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	for _, app := range apps.All() {
		sum, err := campaign.Run(o.instrument(campaign.Config{
			Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
			Ops: app.DefaultOps, TargetRank: app.TargetRank,
			Runs: o.runs, Bits: o.bits, Seed: o.seed, Trace: true, Parallel: o.parallel,
		}))
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		if err := enc.Encode(sum); err != nil {
			return err
		}
	}
	return nil
}

// sweep runs the bit-count ablation: the same CLAMR campaign at 1, 2, 4, 8
// and 16 flipped bits per injection.
func sweep(out io.Writer, o options) error {
	app, err := apps.ByName("clamr")
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "=== Ablation: outcome vs. flipped bits per injection (CLAMR) ===")
	results, err := campaign.BitSweep(o.instrument(campaign.Config{
		Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
		Ops: app.DefaultOps, TargetRank: 0,
		Runs: o.runs, Seed: o.seed, Parallel: o.parallel,
		InjectExec: o.injectExec, NoFork: o.noFork,
	}), []int{1, 2, 4, 8, 16})
	if err != nil {
		return err
	}
	fmt.Fprint(out, campaign.SweepTable(results))
	fmt.Fprintln(out, "(wider flips are less often benign and more often detected)")
	return nil
}

// runResumable runs one fault-tolerant campaign: a single application with the
// robustness features wired up — per-run wall-clock watchdog, optional
// shared TaintHub over TCP with retry/reconnect, a checkpoint journal, and
// SIGINT/SIGTERM-triggered graceful interruption that the same command
// resumes from the journal.
func runResumable(out io.Writer, o options) error {
	app, err := apps.ByName(o.app)
	if err != nil {
		return err
	}
	cfg := campaign.Config{
		Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
		Ops: app.DefaultOps, TargetRank: app.TargetRank,
		Runs: o.runs, Bits: o.bits, Seed: o.seed, Trace: true, Parallel: o.parallel,
		RunTimeout: o.runTimeout, HubPolicy: o.hubPolicy,
		Journal:    o.journal,
		InjectExec: o.injectExec, NoFork: o.noFork,
	}
	if o.hubAddr != "" {
		// Generous retry budget: a durable hub restarting from its WAL
		// (crash, redeploy) is reachable again within seconds, and riding
		// that out beats failing half a campaign's runs.
		client, err := tainthub.DialConfig(o.hubAddr, tainthub.ClientConfig{
			MaxAttempts: 12,
			Wire:        o.hubWire,
		})
		if err != nil {
			return fmt.Errorf("connecting to taint hub: %w", err)
		}
		defer client.Close()
		cfg.Hub = client
	}

	// First SIGINT/SIGTERM stops feeding new runs; in-flight runs finish and
	// are journaled. A second signal falls through to the default handler
	// (hard kill), so a wedged campaign can still be ended.
	stop := make(chan struct{})
	cfg.Stop = stop
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-sigc:
			signal.Stop(sigc)
			close(stop)
		case <-finished:
		}
	}()

	sum, err := campaign.Run(o.instrument(cfg))
	if errors.Is(err, campaign.ErrInterrupted) {
		if cfg.Journal == "" {
			fmt.Fprintln(out, "campaign interrupted; no -journal was set, completed runs are lost")
			return nil
		}
		fmt.Fprintf(out, "campaign interrupted; completed runs journaled to %s\n", cfg.Journal)
		fmt.Fprintf(out, "resume with: campaign -experiment run -app %s -runs %d -seed %d -journal %s\n",
			o.app, o.runs, o.seed, cfg.Journal)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprint(out, sum.Report())
	return nil
}

// submitCampaign posts one experiment spec to a chaserd control plane and
// prints the assigned campaign ID. The spec mirrors what -experiment run
// would execute standalone (Trace on), so a sharded campaign's merged
// summary is comparable — bitwise — with the single-process one.
func submitCampaign(out io.Writer, o options) error {
	if o.chaserd == "" {
		return fmt.Errorf("-experiment submit requires -chaserd URL")
	}
	cl := server.NewClient(o.chaserd)
	id, err := cl.Submit(server.Spec{
		Tenant:       o.tenant,
		App:          o.app,
		Runs:         o.runs,
		Seed:         o.seed,
		Bits:         o.bits,
		Shards:       o.shards,
		Trace:        true,
		Parallel:     o.parallel,
		RunTimeoutMs: o.runTimeout.Milliseconds(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, id)
	fmt.Fprintf(os.Stderr, "campaign: submitted; watch with: campaign -experiment watch -chaserd %s -campaign %s\n",
		o.chaserd, id)
	return nil
}

// watchCampaign long-polls a chaserd until the campaign completes, then
// prints the merged report — the exact text -experiment run would have
// printed for an uninterrupted local campaign.
func watchCampaign(out io.Writer, o options) error {
	if o.chaserd == "" || o.campaignID == "" {
		return fmt.Errorf("-experiment watch requires -chaserd URL and -campaign ID")
	}
	cl := server.NewClient(o.chaserd)
	doc, err := cl.WaitSummary(o.campaignID)
	if err != nil {
		return err
	}
	fmt.Fprint(out, doc.Report)
	return nil
}

// fig10 measures the performance overhead of injection and tracing for
// Matvec and CLAMR.
func fig10(out io.Writer, o options) error {
	fmt.Fprintln(out, "=== Fig. 10: performance overhead (normalized) ===")
	for _, name := range []string{"matvec", "clamr"} {
		app, err := apps.ByName(name)
		if err != nil {
			return err
		}
		rank := app.TargetRank
		if rank < 0 {
			rank = 0
		}
		// The paper's overhead configuration targets a single instruction
		// ("the fadd instruction after it has been executed 1000 times"),
		// not a whole opcode class.
		ops := []isa.Op{isa.OpFAdd}
		if name == "matvec" {
			ops = []isa.Op{isa.OpLd}
		}
		res, err := campaign.MeasureOverhead(campaign.OverheadConfig{
			Prog: app.Prog, WorldSize: app.WorldSize, Ops: ops,
			N: 1000, Reps: 201, Seed: o.seed, TargetRank: rank,
		})
		if err != nil {
			return err
		}
		norm := func(d, base float64) float64 { return d / base }
		base := float64(res.Baseline)
		fmt.Fprintf(out, "%-8s baseline=%v\n", name, res.Baseline)
		fmt.Fprintf(out, "  inject-off/trace-off: %.3f\n", norm(float64(res.Baseline), base))
		fmt.Fprintf(out, "  inject-on /trace-off: %.3f (injection overhead %.1f%%)\n",
			norm(float64(res.InjectOnly), base), res.InjectOverheadPct())
		fmt.Fprintf(out, "  inject-off/trace-on : %.3f\n", norm(float64(res.TraceOnly), base))
		fmt.Fprintf(out, "  inject-on /trace-on : %.3f (tracing overhead %.1f%%)\n",
			norm(float64(res.InjectAndTrace), base), res.TraceOverheadPct())
	}
	fmt.Fprintln(out, "(paper: CLAMR tracing overhead ~15.7%, injection ~0-2.2%)")
	return nil
}
