package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A repetition runs in a child process of its own, so that its resident set
// and CPU time belong to it alone: the parent set up nothing, verified nothing
// and replayed nothing in that address space. The child prints one
// childResult as JSON on its standard output.

// roundStat is one finished round.
type roundStat struct {
	Sub  int     `json:"sub"`
	Idx  int     `json:"idx"`
	DurS float64 `json:"dur_s"`
	// CPUS is the process's user+system CPU while the round ran, less the
	// calibration kernel's; with two submitters it covers the other one's
	// concurrent work too.
	CPUS float64 `json:"cpu_s"`
	Runs int     `json:"runs"`
	// LatencyS is the median submit-to-report latency of the round's
	// campaigns.
	LatencyS float64 `json:"latency_s"`
	// Host is how much slower than on the quiet reference host the
	// calibration kernel ran while the round played (see calib.go).
	Host float64 `json:"host"`
}

type childResult struct {
	// ReadyUnixNano is when the workload could accept its first submit.
	ReadyUnixNano int64 `json:"ready_unix_nano"`

	WindowS    float64     `json:"window_s"`    // first round's start to last round's end
	CPUS       float64     `json:"cpu_s"`       // user+system over the window, less the calibration kernel's
	Host       float64     `json:"host"`        // the host factor over the window (calib.go)
	PeakRSSMB  float64     `json:"peak_rss_mb"` // Maxrss when the last round ended
	RSSP95MB   float64     `json:"rss_p95_mb"`  // 95th percentile of the resident set, read every rssEvery over the window
	RSSSamples int         `json:"rss_samples"`
	Rounds     []roundStat `json:"rounds"`
	LatenciesS []float64   `json:"latencies_s"` // per campaign

	Runs      int `json:"runs"`
	Shards    int `json:"shards"`
	Campaigns int `json:"campaigns"`
	HubRPCs   int `json:"hub_rpcs"`

	SimCrash       int `json:"sim_crash"`
	ShardsRequeued int `json:"shards_requeued"`
	HubRPCFailed   int `json:"hub_rpc_failed"`

	// Round0 holds round 0's documents by submitter, for the parent's
	// correctness checks.
	Round0 [][]string `json:"round0"`

	// Traced repetitions only.
	Layer    map[string]float64 `json:"layer,omitempty"`
	Tails    map[string]float64 `json:"tails,omitempty"` // the percentile a tail metric really reports
	SelfTime []layerRow         `json:"self_time,omitempty"`
}

// childOpts is what the parent tells the child.
type childOpts struct {
	workload workload
	sz       sizes
	seed     int64
	seconds  float64
	traced   bool
	setup    bool   // set up, report ready, tear down: a setup_s sample
	dir      string // the repetition's own directory, created and removed by the parent
	traceOut string
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF fails only for a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssEvery is how often the resident set is read while the rounds play.
const rssEvery = 5 * time.Millisecond

// rssSampler reads the process's resident set from /proc/self/statm (Linux,
// like rusage's Maxrss in KiB) on a ticker. The resident set of a repetition
// is spiky: lud_sampling sits at 23 MB for half of its window and touches
// 50 to 70 MB once or twice in it, so Maxrss is the largest of a few
// extremes and spread 15-35% over ten seeds, while the 95th percentile of
// the samples stayed within 3%.
type rssSampler struct {
	f    *os.File
	quit chan struct{}
	done chan struct{}
	mb   []float64
	err  error
}

func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{f: f, quit: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s, nil
}

func (s *rssSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for s.err == nil {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			s.read()
		}
	}
}

// read takes one sample. A /proc file renders afresh on every read from
// offset 0.
func (s *rssSampler) read() {
	var buf [128]byte
	n, _ := s.f.ReadAt(buf[:], 0)
	var size, resident int64
	if _, err := fmt.Sscan(string(buf[:n]), &size, &resident); err != nil {
		s.err = fmt.Errorf("reading /proc/self/statm: %w", err)
		return
	}
	s.mb = append(s.mb, float64(resident*int64(os.Getpagesize()))/(1<<20))
}

// stop takes a last sample, so that the shortest window has one, and returns
// them all in MB.
func (s *rssSampler) stop() ([]float64, error) {
	close(s.quit)
	<-s.done
	if s.err == nil {
		s.read()
	}
	s.f.Close()
	return s.mb, s.err
}

// runChild is the child process's body.
func runChild(o childOpts) (*childResult, error) {
	var t *tracing
	if o.traced {
		t = newTracing()
	}
	svcDir := filepath.Join(o.dir, "state")
	if err := os.MkdirAll(svcDir, 0o755); err != nil {
		return nil, err
	}
	sess, err := o.workload.open(svcDir, o.sz, t)
	if err != nil {
		return nil, fmt.Errorf("setting up %s: %w", o.workload.name, err)
	}
	res := &childResult{ReadyUnixNano: time.Now().UnixNano()}
	if o.setup {
		_, err := sess.close()
		return res, err
	}

	// Every return below but the last leaves the session open; close it so a
	// failed repetition does not leave listeners and workers behind.
	closed := false
	defer func() {
		if !closed {
			sess.close()
		}
	}()

	before := sess.counters()
	var afterRound0 map[string]float64
	rss, err := startRSSSampler()
	if err != nil {
		return nil, err
	}
	host := startHostSampler()
	cpu0 := cpuSeconds()
	start := time.Now()
	results, err := playRounds(o.workload.submitters, sess, t.recorder(), o.seed, o.seconds, func() { afterRound0 = sess.counters() })
	end := time.Now()
	res.WindowS = end.Sub(start).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	passes := host.stop()
	var kernelCPUS float64
	res.Host, kernelCPUS = passes.between(start, end)
	res.CPUS -= kernelCPUS
	res.PeakRSSMB = float64(rusage().Maxrss) / 1024 // Linux reports KiB
	rssMB, rssErr := rss.stop()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	res.RSSP95MB, res.RSSSamples = percentile(rssMB, 0.95), len(rssMB)
	res.Round0 = make([][]string, o.workload.submitters)
	var round0 playedRound // round 0 of every submitter: runs summed, the longest duration
	for _, r := range results {
		hostFactor, kernelCPUS := passes.between(r.start, r.start.Add(time.Duration(r.durS*float64(time.Second))))
		res.Rounds = append(res.Rounds, roundStat{Sub: r.sub, Idx: r.idx, DurS: r.durS, CPUS: r.cpuS - kernelCPUS, Runs: r.runs, LatencyS: median(r.latencies), Host: hostFactor})
		res.LatenciesS = append(res.LatenciesS, r.latencies...)
		res.Runs += r.runs
		res.Shards += r.shards
		res.Campaigns += len(r.latencies)
		res.SimCrash += r.simCrash
		if r.idx == 0 {
			res.Round0[r.sub] = r.docs
			round0.runs += r.runs
			round0.durS = max(round0.durS, r.durS)
		}
	}
	if t != nil {
		if err := layerMetrics(o, sess, t, res, round0, before, afterRound0); err != nil {
			return nil, err
		}
	}

	closed = true
	td, err := sess.close()
	if err != nil {
		return nil, err
	}
	res.ShardsRequeued, res.HubRPCs, res.HubRPCFailed = td.shardsRequeued, td.hubRPCs, td.hubRPCFailed
	if t != nil {
		for k, v := range td.layer {
			res.Layer[k] = v
		}
		res.Layer["campaign.disk_bytes_per_run"] = float64(td.diskBytes) / float64(res.Runs)
		res.Layer["server.shards_requeued"] = float64(td.shardsRequeued)
		res.Layer["tainthub.rpc_failed"] = float64(td.hubRPCFailed + t.hubFail)
		if o.traceOut != "" {
			if err := writeTraceFile(o.traceOut, t.rec.closed()); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// layerMetrics fills in a traced repetition's per-layer metrics while the
// session is still up: counts from the registries, latencies from the
// seams, then the stage replay.
func layerMetrics(o childOpts, sess session, t *tracing, res *childResult, round0 playedRound, before, afterRound0 map[string]float64) error {
	res.Layer = make(map[string]float64)
	res.Tails = make(map[string]float64)
	end := sess.counters()
	countMetrics(res.Layer, before, afterRound0, end, round0.runs)
	guests, err := o.workload.guests()
	if err != nil {
		return err
	}
	g := guests[0]
	res.Layer["campaign.cpu_utilisation"] = res.CPUS / (res.WindowS * 2)
	// Rank time available: every rank of every concurrently running world,
	// for the whole window.
	res.Layer["mpi.recv_wait_share"] = end["mpi_recv_wait_seconds_sum"] / (res.WindowS * 2 * float64(g.world))
	res.Layer["tainthub.rpc_busy_share"] = end["tainthub_rpc_seconds_sum"] / res.WindowS
	spanMetrics(res, t)

	golden, observed, err := replayProgram(g, t.results, o.workload.forks, o.sz.replaySamples, o.seed, res.Layer)
	if err != nil {
		return err
	}
	goldens := afterRound0["campaign_golden_runs_total"] - before["campaign_golden_runs_total"]
	res.Layer["campaign.golden_share"] = goldens * res.Layer["core.golden_cold_ms"] / 1e3 / (round0.durS * 2)
	if ss, ok := sess.(*serviceSession); ok {
		return replayService(ss, g, o, golden, observed, res)
	}
	return nil
}

func writeTraceFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// playedRound is a round's result with its place and duration.
type playedRound struct {
	roundResult
	sub, idx   int
	start      time.Time
	durS, cpuS float64
}

// playRounds is the closed loop: each submitter plays its rounds one after
// the other until seconds have passed, always at least one. Submitters meet
// after round 0, where afterRound0 runs once while none of them is in a
// round: the counts taken there belong to round 0 alone, whose inputs the
// seed fixes, however many rounds the time allows after it.
func playRounds(submitters int, sess session, rec *recorder, seed int64, seconds float64, afterRound0 func()) ([]playedRound, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var (
		mu       sync.Mutex
		out      []playedRound
		firstErr error
		failed   atomic.Bool
		met      sync.WaitGroup
		once     sync.Once
		wg       sync.WaitGroup
	)
	met.Add(submitters)
	for sub := 0; sub < submitters; sub++ {
		wg.Add(1)
		go func(sub int) {
			defer wg.Done()
			for idx := 0; ; idx++ {
				span := rec.begin("bench.round", 0, "", -1, sub)
				start, cpu := time.Now(), cpuSeconds()
				r, err := sess.round(roundCtx{seed: seed, sub: sub, idx: idx, span: span})
				dur, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu
				rec.end(span)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					out = append(out, playedRound{roundResult: r, sub: sub, idx: idx, start: start, durS: dur, cpuS: cpu})
				}
				mu.Unlock()
				if err != nil {
					failed.Store(true)
				}
				if idx == 0 {
					met.Done()
					met.Wait()
					once.Do(afterRound0)
				}
				if failed.Load() || !time.Now().Before(deadline) {
					return
				}
			}
		}(sub)
	}
	wg.Wait()
	return out, firstErr
}

// countMetrics derives the per-layer metrics that are counts or ratios of
// counts: the exact ones from round 0's delta, the ratios from the whole
// window.
func countMetrics(out, before, round0, end map[string]float64, runs0 int) {
	d0 := func(name string) float64 { return round0[name] - before[name] }
	per := func(name string) float64 { return d0(name) / float64(runs0) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	out["tcg.translate_blocks"] = d0("tcg_translations_total")
	out["vm.instructions_per_run"] = per("vm_instructions_total")
	out["taint.tainted_reads_per_run"] = per("vm_tainted_mem_reads_total")
	out["taint.tainted_writes_per_run"] = per("vm_tainted_mem_writes_total")
	out["mpi.msgs_per_run"] = per("mpi_messages_total")
	out["tainthub.publish_per_run"] = per("hub_published")
	out["tainthub.poll_per_run"] = per("hub_polls")

	out["tcg.base_hit_ratio"] = ratio(end["tcg_base_hits_total"], end["tcg_base_hits_total"]+end["tcg_base_misses_total"])
	out["vm.fastpath_tb_share"] = ratio(end["vm_fastpath_tbs_total"], end["vm_tb_executed_total"])
	out["tainthub.poll_miss_ratio"] = ratio(end["hub_polls"]-end["hub_hits"], end["hub_polls"])
	out["tainthub.wire_bytes_per_rpc"] = ratio(end["hub_wire_bytes"], end["hub_published"]+end["hub_polls"])
	out["tainthub.wal_bytes_per_publish"] = ratio(end["hub_wal_bytes"], end["hub_published"])
	hits, misses := end["campaign_snapshot_cache_hits_total"], end["campaign_snapshot_cache_misses_total"]
	out["campaign.fork_hit_ratio"] = ratio(hits, hits+misses)
	out["campaign.fork_fallbacks"] = end["campaign_fork_fallbacks_total"]
	out["campaign.snap_cache_bytes"] = end["campaign_snapshot_cache_bytes_high_water"]
}

// spanMetrics derives the per-layer metrics that are latencies of the
// seams' calls, and the self-time table.
func spanMetrics(res *childResult, t *tracing) {
	t.mu.Lock()
	samples := make(map[string][]float64, len(t.samples))
	for k, v := range t.samples {
		samples[k] = v
	}
	claims, idle := t.claims, t.idle
	t.mu.Unlock()
	queue, merge := t.waits()
	ms := func(xs []float64) float64 { return median(xs) * 1e3 }
	res.Layer["server.submit_p50_ms"] = ms(samples["server.submit"])
	res.Layer["server.claim_p50_ms"] = ms(samples["server.claim"])
	res.Layer["server.shard_p50_ms"] = ms(samples["server.shard"])
	res.Layer["server.complete_p50_ms"] = ms(samples["server.complete"])
	res.Layer["server.queue_wait_p50_ms"] = ms(queue)
	res.Layer["server.merge_wait_p50_ms"] = ms(merge)
	if claims > 0 {
		res.Layer["server.idle_claim_ratio"] = float64(idle) / float64(claims)
	}
	if shards := samples["server.shard"]; len(shards) > 0 {
		v, used := tailPercentile(shards, 0.95)
		res.Layer["server.shard_p95_ms"], res.Tails["server.shard_p95_ms"] = v*1e3, used
		v, used = tailPercentile(res.LatenciesS, 0.95)
		res.Layer["server.campaign_p95_s"], res.Tails["server.campaign_p95_s"] = v, used
	}
	res.SelfTime = selfTimeTable(t.rec.closed())
	res.Layer["bench.attributed_share"] = attributedShare(res.SelfTime)
}

// replayService measures what needs the live service or the files it wrote:
// hub RPC latency, the journal, and the logs' sizes.
func replayService(ss *serviceSession, g guest, o childOpts, golden [][]byte, observed []observedRun, res *childResult) error {
	svc := ss.svc
	first := o.workload.specs(o.sz, o.seed, 0, 0)[0]
	if err := replayHub(g, first.Runs, svc.proxy.addr(), ss.t, o.sz.replaySamples, first.Seed, res.Layer); err != nil {
		return err
	}
	ss.t.mu.Lock()
	rpcs := ss.t.samples["tainthub.rpc"]
	ss.t.mu.Unlock()
	if len(rpcs) > 0 {
		res.Layer["tainthub.rpc_p50_us"] = median(rpcs) * 1e6
		v, used := tailPercentile(rpcs, 0.99)
		res.Layer["tainthub.rpc_p99_us"], res.Tails["tainthub.rpc_p99_us"] = v*1e6, used
	}

	store := svc.srv.Store()
	journals := make([]string, first.Shards)
	for i := range journals {
		journals[i] = store.JournalPath(ss.t.firstCampaign, i)
	}
	cfg := g.config(first.Runs, first.Seed)
	if err := replayJournal(cfg, journals, o.dir, observed, golden, o.sz.replaySamples, res.Layer); err != nil {
		return fmt.Errorf("stage replay: journal: %w", err)
	}
	journalBytes, err := dirBytes(filepath.Dir(journals[0]))
	if err != nil {
		return err
	}
	res.Layer["campaign.journal_bytes_per_run"] = float64(journalBytes) / float64(res.Runs)
	walBytes, err := dirBytes(filepath.Join(svc.dir, "chaserd", "wal"))
	if err != nil {
		return err
	}
	res.Layer["server.wal_bytes_per_campaign"] = float64(walBytes) / float64(res.Campaigns)
	return nil
}

// childMain runs the child and prints its result.
func childMain(o childOpts) error {
	res, err := runChild(o)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
