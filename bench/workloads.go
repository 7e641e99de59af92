package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"chaser/internal/apps"
	"chaser/internal/campaign"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/obs"
	"chaser/internal/server"
	"chaser/internal/tainthub"
)

// sizes are the workloads' fixed dimensions. A round is one submit-to-report
// pass of these sizes; a repetition repeats rounds until its time is up, so
// the sizes set what a round costs, not how long a repetition takes. They
// were chosen on the 2-core reference box to make a round about a second:
// long enough that the golden run and the per-shard fixed costs keep the
// share a user's campaign gives them, short enough that a 20 s repetition
// holds fifteen rounds and their median means something.
type sizes struct {
	samplingRuns int // lud_sampling: runs per campaign
	sweepRuns    int // lud_site_sweep: runs per bit count
	sweepSlice   int // lud_site_sweep: runs per bit count replayed without forking
	clamrRuns    int // clamr_mpi_service: runs per campaign
	clamrShards  int
	mixRuns      int // small_campaign_mix: runs per campaign
	mixShards    int
	mixBatch     int // small_campaign_mix: campaigns per round and submitter
	// replaySamples is how many alternating pairs a stage-replay timing is
	// the median of (single-sided timings scale with it); overheadPairs is
	// the same for trace_overhead_x.
	replaySamples int
	overheadPairs int
}

var fullSizes = sizes{
	samplingRuns: 150, sweepRuns: 1500, sweepSlice: 40,
	clamrRuns: 200, clamrShards: 8, mixRuns: 40, mixShards: 4, mixBatch: 10,
	replaySamples: 15, overheadPairs: 100,
}

// sweepBits are the flipped-bit counts of lud_site_sweep.
var sweepBits = []int{1, 2, 4, 8, 16}

// ludOrder is the LUD matrix order of both LUD workloads (about 1.6 M guest
// instructions a run). sweepSite pins lud_site_sweep's injection at 90% of
// the 812,148 golden executions of lud's default ops at that order on rank
// 0: the late-site case fork-point multiplexing is for.
const (
	ludOrder  = 48
	sweepSite = 730_000
)

// guest is a program under injection with its campaign defaults.
type guest struct {
	name  string
	prog  *isa.Program
	world int
	ops   []isa.Op
	// target is the campaign's TargetRank (-1 draws a rank per run, which
	// moves the task list's random stream even in a world of one); rank is
	// the rank single injections outside a campaign go to.
	target, rank int
}

func guestOf(name string) (guest, error) {
	app, err := apps.ByName(name)
	if err != nil {
		return guest{}, err
	}
	return guest{
		name: app.Name, prog: app.Prog, world: app.WorldSize, ops: app.DefaultOps,
		target: app.TargetRank, rank: max(app.TargetRank, 0),
	}, nil
}

// ludGuest is the registry's lud at the matrix order the benchmark uses.
func ludGuest() (guest, error) {
	g, err := guestOf("lud")
	if err != nil {
		return guest{}, err
	}
	g.target = 0
	g.prog, err = lang.Compile(apps.LUDProgram(ludOrder))
	return g, err
}

// config is the campaign the guest's defaults describe, as
// server.campaignConfig builds it from a spec, on both cores: every campaign
// the benchmark runs in process keeps nproc = 2 runs executing.
func (g guest) config(runs int, seed int64) campaign.Config {
	return campaign.Config{
		Name: g.name, Prog: g.prog, WorldSize: g.world, Ops: g.ops, TargetRank: g.target,
		Runs: runs, Bits: 1, Seed: seed, Trace: true, Parallel: 2,
	}
}

// roundCtx places one round: which submitter, which of its rounds, the
// repetition's seed, and the round's span.
type roundCtx struct {
	seed     int64
	sub, idx int
	span     int
}

// roundResult is what one round produced.
type roundResult struct {
	runs      int
	shards    int
	latencies []float64 // submit to report in seconds, one per campaign
	// docs are the outputs the correctness checks compare (summaryDocument):
	// one per campaign, and for lud_site_sweep the sweep's document followed
	// by its no-fork slice's.
	docs     []string
	simCrash int
}

// session is a workload that is set up and accepts rounds.
type session interface {
	round(rc roundCtx) (roundResult, error)
	// counters returns the cumulative raw counts the per-layer metrics are
	// derived from (empty in an untraced in-process session).
	counters() map[string]float64
	// close tears the session down and returns what it left on disk and
	// the failures it counted.
	close() (teardown, error)
}

type teardown struct {
	diskBytes      int64
	shardsRequeued int
	hubRPCs        int
	hubRPCFailed   int
	layer          map[string]float64 // teardown-time per-layer metrics, traced only
}

// workload is one named traffic mix.
type workload struct {
	name, why  string
	submitters int
	forks      bool                    // its campaigns fork from snapshots: the stage replay adds the PR 7 arm
	ranked     bool                    // its guests are MPI worlds: no count is then exact (see perLayer)
	guests     func() ([]guest, error) // the programs it runs; the first is the stage replay's
	open       func(dir string, sz sizes, t *tracing) (session, error)
	// specs lists the campaigns of one round of a service workload.
	specs specsFunc
	// reference recomputes round 0 of submitter sub through the path the
	// repo's invariants say must agree bitwise; "" marks a document that
	// has no independent twin.
	reference func(sz sizes, seed int64, sub int) ([]string, error)
}

var workloads = []workload{
	{
		name:       "lud_sampling",
		why:        "random-site LUD campaigns in process: every run replays from scratch, so the vm loops and taint do the work; hub, mpi, server and fork do none",
		submitters: 1, guests: ludGuests, open: openLUD(samplingRound), reference: samplingReference,
	},
	{
		name:       "lud_site_sweep",
		why:        "single-site LUD bit sweep in process: one prefix, thousands of COW forks and short tails, so snapshot, fork, classify and per-machine state dominate",
		submitters: 1, forks: true, guests: ludGuests, open: openLUD(sweepRound), reference: sweepReference,
	},
	{
		name:       "clamr_mpi_service",
		why:        "4-rank CLAMR campaigns through chaserd, two workers and a durable TaintHub over loopback: mpi blocking, hub RPCs and WAL, journals and merge are on the path",
		submitters: 1, ranked: true, guests: appGuests("clamr_mpi"), specs: clamrSpecs, open: openService(false, clamrSpecs), reference: serviceReference(clamrSpecs),
	},
	{
		name:       "small_campaign_mix",
		why:        "two submitters of 40-run matvec and bfs campaigns with fsync on: submits, claims, WAL appends, journal creates and merges per guest instruction, so fixed costs dominate",
		submitters: 2, ranked: true, guests: appGuests("matvec", "bfs"), specs: mixSpecs, open: openService(true, mixSpecs), reference: serviceReference(mixSpecs),
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func ludGuests() ([]guest, error) {
	g, err := ludGuest()
	return []guest{g}, err
}

func appGuests(names ...string) func() ([]guest, error) {
	return func() ([]guest, error) {
		var gs []guest
		for _, n := range names {
			g, err := guestOf(n)
			if err != nil {
				return nil, err
			}
			gs = append(gs, g)
		}
		return gs, nil
	}
}

// summaryDocument is what the correctness checks compare for a campaign on
// a serial guest: the report text and then the summary JSON, so a change in
// taint counts shows even where the report's four counts agree. Campaigns
// on MPI guests are compared on the report text alone, the repo's bitwise
// invariant: about one clamr_mpi campaign in fifty through the service
// comes back with one run's cross-rank taint missing (propagated_runs 120
// against the in-process twin's 121, hub RPC failures 0), which the report
// does not show and a correctness check must not trip over at random.
func summaryDocument(sum *campaign.Summary) (string, error) {
	raw, err := json.Marshal(sum)
	return sum.Report() + string(raw) + "\n", err
}

// ---- in-process LUD workloads ----

type ludSession struct {
	g    guest
	sz   sizes
	t    *tracing
	reg  *obs.Registry // traced repetitions only
	play func(s *ludSession, rc roundCtx) (roundResult, error)
}

func openLUD(round func(*ludSession, roundCtx) (roundResult, error)) func(string, sizes, *tracing) (session, error) {
	return func(_ string, sz sizes, t *tracing) (session, error) {
		g, err := ludGuest()
		if err != nil {
			return nil, err
		}
		s := &ludSession{g: g, sz: sz, t: t, play: round}
		if t != nil {
			s.reg = obs.NewRegistry()
		}
		return s, nil
	}
}

func (s *ludSession) round(rc roundCtx) (roundResult, error) { return s.play(s, rc) }

func (s *ludSession) counters() map[string]float64 { return flatten(s.reg) }

func (s *ludSession) close() (teardown, error) { return teardown{}, nil }

// config adds what a measured LUD campaign has beyond the guest's defaults.
func (s *ludSession) config(runs int, seed int64) campaign.Config {
	cfg := s.g.config(runs, seed)
	if s.t != nil {
		cfg.Obs = s.reg
		cfg.RunObserver = s.t.observer
	}
	return cfg
}

func samplingRound(s *ludSession, rc roundCtx) (roundResult, error) {
	cfg := s.config(s.sz.samplingRuns, rc.seed+int64(rc.idx))
	var sum *campaign.Summary
	var err error
	start := time.Now()
	s.t.timed("campaign.run", rc.span, "", -1, rc.sub, func() { sum, err = campaign.Run(cfg) })
	lat := time.Since(start).Seconds()
	if err != nil {
		return roundResult{}, err
	}
	doc, err := summaryDocument(sum)
	return roundResult{runs: sum.Runs, latencies: []float64{lat}, docs: []string{doc}, simCrash: sum.SimCrash}, err
}

// samplingReference is the same campaign on the full taint-aware loop only.
func samplingReference(sz sizes, seed int64, _ int) ([]string, error) {
	g, err := ludGuest()
	if err != nil {
		return nil, err
	}
	cfg := g.config(sz.samplingRuns, seed)
	cfg.NoFastPath = true
	sum, err := campaign.Run(cfg)
	if err != nil {
		return nil, err
	}
	doc, err := summaryDocument(sum)
	return []string{doc}, err
}

// sweepDocuments renders a sweep: every bit count's report and summary, then
// the table.
func sweepDocuments(results []campaign.SweepResult) (string, error) {
	var sb strings.Builder
	for _, r := range results {
		doc, err := summaryDocument(r.Summary)
		if err != nil {
			return "", err
		}
		sb.WriteString(doc)
	}
	sb.WriteString(campaign.SweepTable(results))
	return sb.String(), nil
}

func sweepRound(s *ludSession, rc roundCtx) (roundResult, error) {
	cfg := s.config(s.sz.sweepRuns, rc.seed+int64(rc.idx))
	cfg.InjectExec = sweepSite
	cfg.KeepRunOutcomes = true // the no-fork twin is compared on a slice of them
	var results []campaign.SweepResult
	var err error
	start := time.Now()
	s.t.timed("campaign.bit_sweep", rc.span, "", -1, rc.sub, func() { results, err = campaign.BitSweep(cfg, sweepBits) })
	lat := time.Since(start).Seconds()
	if err != nil {
		return roundResult{}, err
	}
	res := roundResult{latencies: []float64{lat}}
	slice := make([]campaign.SweepResult, len(results))
	for i, r := range results {
		res.runs += r.Summary.Runs
		res.simCrash += r.Summary.SimCrash
		c := cfg
		c.Name, c.KeepRunOutcomes = r.Summary.Name, false
		slice[i] = campaign.SweepResult{Bits: r.Bits, Summary: campaign.Summarize(c, r.Summary.Outcomes[:s.sz.sweepSlice])}
		r.Summary.Outcomes = nil
	}
	full, err := sweepDocuments(results)
	if err != nil {
		return roundResult{}, err
	}
	part, err := sweepDocuments(slice)
	res.docs = []string{full, part}
	return res, err
}

// sweepReference replays the first sweepSlice runs of every bit count from
// scratch (NoFork); a full no-fork sweep would take ten times the round.
func sweepReference(sz sizes, seed int64, _ int) ([]string, error) {
	g, err := ludGuest()
	if err != nil {
		return nil, err
	}
	cfg := g.config(sz.sweepRuns, seed)
	cfg.InjectExec = sweepSite
	cfg.NoFork = true
	cfg.Shard = &campaign.ShardRange{Lo: 0, Hi: sz.sweepSlice}
	results, err := campaign.BitSweep(cfg, sweepBits)
	if err != nil {
		return nil, err
	}
	part, err := sweepDocuments(results)
	return []string{"", part}, err
}

// ---- service workloads ----

type specsFunc func(sz sizes, seed int64, sub, idx int) []server.Spec

type serviceSession struct {
	svc   *service
	sz    sizes
	t     *tracing
	specs specsFunc
}

func openService(fsync bool, specs specsFunc) func(string, sizes, *tracing) (session, error) {
	return func(dir string, sz sizes, t *tracing) (session, error) {
		svc, err := startService(dir, fsync, t)
		if err != nil {
			return nil, err
		}
		return &serviceSession{svc: svc, sz: sz, t: t, specs: specs}, nil
	}
}

// clamrSpecs and mixSpecs list the campaigns of one round; the measured
// round and its reference both read them from here.
func clamrSpecs(sz sizes, seed int64, _, idx int) []server.Spec {
	return []server.Spec{{
		App: "clamr_mpi", Runs: sz.clamrRuns, Shards: sz.clamrShards,
		Trace: true, Parallel: 1, Seed: seed + int64(idx),
	}}
}

// mixPoolBase and mixPoolSize name the campaign seeds small_campaign_mix
// draws from; -seed sets where in the pool a repetition starts. Campaign
// seeds are not taken from -seed directly because about one 40-run matvec
// campaign in 650 holds a fault that corrupts an MPI count: it allocates 40
// to 70 MB in one piece or scans gigabytes for seconds, and the process keeps
// the larger heap, collects less often and plays every later round 10-20%
// faster at 30 MB more resident. With seeds 2001 to 2010 four repetitions in
// ten met campaign 2291 and rss_p95_mb spread 60% of its median. Every seed
// of the pool was run once as matvec and once as bfs: none takes more than
// 3.5 times the median campaign's time or allocation.
const (
	mixPoolBase = 4026
	mixPoolSize = 512
)

func mixSpecs(sz sizes, seed int64, sub, idx int) []server.Spec {
	specs := make([]server.Spec, sz.mixBatch)
	for k := range specs {
		n := (idx*sz.mixBatch+k)*2 + sub // the campaign's index across both submitters
		app := "matvec"
		if (k+sub)%2 == 1 {
			app = "bfs"
		}
		at := (seed + int64(n)) % mixPoolSize
		if at < 0 {
			at += mixPoolSize
		}
		specs[k] = server.Spec{
			App: app, Runs: sz.mixRuns, Shards: sz.mixShards,
			Trace: true, Parallel: 1, Seed: mixPoolBase + at,
		}
	}
	return specs
}

// round submits the round's campaigns one after the other, each waited to
// its merged report: the closed loop of one submitter.
func (s *serviceSession) round(rc roundCtx) (roundResult, error) {
	var res roundResult
	for _, spec := range s.specs(s.sz, rc.seed, rc.sub, rc.idx) {
		start := time.Now()
		at := s.t.now()
		var id string
		var err error
		s.t.timed("server.submit", rc.span, "", -1, rc.sub, func() { id, err = s.svc.client.Submit(spec) })
		if err != nil {
			return res, fmt.Errorf("submit %s: %w", spec.App, err)
		}
		box := s.t.openWait(id, at, rc)
		doc, err := s.svc.client.WaitSummary(id)
		s.t.closeWait(id, box)
		if err != nil {
			return res, fmt.Errorf("campaign %s: %w", id, err)
		}
		res.latencies = append(res.latencies, time.Since(start).Seconds())
		var counts struct {
			SimCrash int `json:"sim_crash"`
		}
		if err := json.Unmarshal(doc.Summary, &counts); err != nil {
			return res, fmt.Errorf("campaign %s: summary: %w", id, err)
		}
		res.simCrash += counts.SimCrash
		res.runs += spec.Runs
		res.shards += spec.Shards
		res.docs = append(res.docs, doc.Report)
	}
	return res, nil
}

// serviceReference runs each of round 0's campaigns in process with private
// hubs: the repo's invariant is that the sharded, journaled, merged service
// result equals the standalone one bitwise.
func serviceReference(specsOf specsFunc) func(sizes, int64, int) ([]string, error) {
	return func(sz sizes, seed int64, sub int) ([]string, error) {
		var docs []string
		for _, spec := range specsOf(sz, seed, sub, 0) {
			g, err := guestOf(spec.App)
			if err != nil {
				return nil, err
			}
			cfg := g.config(spec.Runs, spec.Seed)
			sum, err := campaign.Run(cfg)
			if err != nil {
				return nil, err
			}
			docs = append(docs, sum.Report())
		}
		return docs, nil
	}
}

// close drains the stack and measures what it left. A traced repetition
// also times a cold open of each log as a crash would leave it: the hub's
// before the final snapshot truncates it, chaserd's as shut down.
func (s *serviceSession) close() (teardown, error) {
	if err := s.svc.stop(); err != nil {
		return teardown{}, err
	}
	reg := s.svc.srv.Registry()
	hs := s.svc.hub.Stats()
	td := teardown{
		shardsRequeued: int(reg.Counter("server_shards_requeued_total").Value() + reg.Counter("server_shards_quarantined_total").Value()),
		hubRPCs:        int(hs.Published + hs.Polls),
		hubRPCFailed:   int(reg.Counter("core_hub_degraded_total").Value()),
	}
	hub := s.svc.hub
	if s.t != nil {
		if err := hub.Abandon(); err != nil {
			return td, err
		}
		var err error
		walPath := filepath.Join(s.svc.dir, "hub.wal")
		secs := timeOnce(func() { hub, err = tainthub.OpenDurable(walPath, tainthub.DurableConfig{}) })
		if err != nil {
			return td, fmt.Errorf("reopening the hub WAL: %w", err)
		}
		td.layer = map[string]float64{"tainthub.wal_replay_ms": secs * 1e3}
	}
	if err := hub.Close(); err != nil {
		return td, err
	}
	var err error
	if td.diskBytes, err = dirBytes(s.svc.dir); err != nil {
		return td, err
	}
	if s.t != nil {
		// After the bytes are counted: opening the store compacts the log.
		var store *server.Store
		secs := timeOnce(func() {
			store, _, err = server.OpenStore(filepath.Join(s.svc.dir, "chaserd"), server.StoreOptions{})
		})
		if err != nil {
			return td, fmt.Errorf("reopening the chaserd WAL: %w", err)
		}
		td.layer["server.wal_replay_ms"] = secs * 1e3
		err = store.Close()
	}
	return td, err
}

func (s *serviceSession) counters() map[string]float64 {
	c := flatten(s.svc.srv.Registry())
	for k, v := range flatten(s.svc.hubReg) {
		c[k] = v
	}
	hs := s.svc.hub.Stats()
	c["hub_published"], c["hub_polls"], c["hub_hits"] = float64(hs.Published), float64(hs.Polls), float64(hs.Hits)
	c["hub_wal_bytes"] = float64(s.svc.hub.WALSize())
	if s.svc.proxy != nil {
		c["hub_wire_bytes"] = float64(s.svc.proxy.bytes.Load())
	}
	return c
}

// flatten reads a registry into name -> value: counters and gauges under
// their names, a histogram as name_sum and name_count. Nil reads as empty.
func flatten(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		out[c.Name] = float64(c.Value)
	}
	for _, g := range snap.Gauges {
		out[g.Name] = g.Value
	}
	for _, h := range snap.Histograms {
		out[h.Name+"_sum"], out[h.Name+"_count"] = h.Sum, float64(h.Count)
	}
	return out
}
