package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/core"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
	"chaser/internal/wal"
)

// summariesEqual compares two summaries through their canonical JSON form
// (covers every count, breakdown and histogram the export exposes).
func summariesEqual(t *testing.T, a, b *Summary) {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Errorf("summaries diverge:\n%s\n%s", aj, bj)
	}
}

func kmeansConfig(t *testing.T) Config {
	t.Helper()
	app, err := apps.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
		Ops: app.DefaultOps, TargetRank: 0,
		Runs: 15, Bits: 1, Seed: 808, Trace: true, Parallel: 4,
		KeepRunOutcomes: true,
	}
}

// TestJournalResumeSkipsCompletedRuns journals a full campaign, then
// resumes from the finished journal: every run must be served from the
// journal (none re-executed) and the summary must be byte-identical.
func TestJournalResumeSkipsCompletedRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := kmeansConfig(t)
	cfg.Journal = path
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	rcfg := cfg
	rcfg.Journal = path
	rcfg.Obs = reg
	res, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, full, res)
	if got := reg.Counter("campaign_resumed_runs_total").Value(); got != uint64(cfg.Runs) {
		t.Errorf("campaign_resumed_runs_total = %d, want %d", got, cfg.Runs)
	}
	if got := reg.Counter("campaign_runs_started_total").Value(); got != 0 {
		t.Errorf("%d runs re-executed on a complete journal", got)
	}
	// Per-run outcomes survive the JSON round trip, including the injected
	// opcode the per-op breakdown keys on.
	for i := range full.Outcomes {
		f, r := full.Outcomes[i], res.Outcomes[i]
		if f.Outcome != r.Outcome || f.Term != r.Term || f.InjectedOp() != r.InjectedOp() {
			t.Errorf("run %d: %v/%v/%q != %v/%v/%q",
				i, f.Outcome, f.Term, f.InjectedOp(), r.Outcome, r.Term, r.InjectedOp())
		}
	}
}

// TestJournalTornTail simulates a crash mid-append: the journal loses half
// of its final record. Resume must tolerate it, re-run only the torn run,
// and reproduce the uninterrupted summary; afterwards the file must read
// cleanly end to end.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := kmeansConfig(t)
	cfg.Journal = path
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Journal = path
	reg := obs.NewRegistry()
	rcfg.Obs = reg
	res, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, full, res)
	if got := reg.Counter("campaign_resumed_runs_total").Value(); got != uint64(cfg.Runs-1) {
		t.Errorf("resumed %d runs, want %d (one torn)", got, cfg.Runs-1)
	}

	// The truncation + append must leave a fully readable file.
	_, done, err := readBackJournal(t, path, cfg)
	if err != nil {
		t.Fatalf("journal unreadable after resume: %v", err)
	}
	if len(done) != cfg.Runs {
		t.Errorf("journal holds %d runs after resume, want %d", len(done), cfg.Runs)
	}
}

// TestJournalBitFlipNotMerged flips one byte inside a mid-file record so
// that it still parses as JSON (a digit of its run index). The checksum must
// turn that into the torn-tail path: the merge reports runs missing instead
// of folding a wrong index into the report, and a resume re-runs everything
// from the damage on and reproduces the uninterrupted summary.
func TestJournalBitFlipNotMerged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := kmeansConfig(t)
	cfg.Journal = path
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := journalFrames(t, path)
	const hit = 8 // frames[0] is the header, so 7 entries precede the damage
	at := bytes.Index(frames[hit], []byte(`"idx":`))
	if at < 0 {
		t.Fatalf("no idx field in %q", frames[hit])
	}
	frames[hit][at+len(`"idx":`)] ^= 1 // '4' <-> '5': still a digit
	if err := os.WriteFile(path, bytes.Join(frames, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	mcfg := cfg
	mcfg.Journal = ""
	if _, err := MergeJournals(mcfg, nil, path); err == nil || !strings.Contains(err.Error(), "runs missing") {
		t.Fatalf("merge over a flipped record = %v, want runs reported missing", err)
	}
	rcfg := mcfg
	rcfg.Journal = path
	reg := obs.NewRegistry()
	rcfg.Obs = reg
	res, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, full, res)
	if got := reg.Counter("campaign_resumed_runs_total").Value(); got != hit-1 {
		t.Errorf("resumed %d runs, want the %d before the damage", got, hit-1)
	}
}

// TestJournalAppendFailureRepaired: one failed append (a short write) must
// cost that entry only. The campaign records the error and its other
// workers keep appending; those entries must not end up behind a torn frame
// that hides them from every later read.
func TestJournalAppendFailureRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := kmeansConfig(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fail := false
	opts := journalOptions
	opts.Fault = func(site string) bool { return fail && site == wal.FaultShortWrite }
	j.log.Close()
	if j.log, err = wal.Open(path, opts, nil); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 5; idx++ {
		fail = idx == 1
		err := j.Append(idx, RunOutcome{Outcome: OutcomeBenign})
		if fail != (err != nil) {
			t.Fatalf("append %d: err = %v with the fault armed = %v", idx, err, fail)
		}
	}
	_, entries, _, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, e := range entries {
		got = append(got, e.Idx)
	}
	if want := []int{0, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("journal holds runs %v after one failed append, want %v", got, want)
	}
}

func readBackJournal(t *testing.T, path string, cfg Config) (*Journal, map[int]RunOutcome, error) {
	t.Helper()
	j, done, err := ResumeJournal(path, cfg)
	if j != nil {
		j.Close()
	}
	return j, done, err
}

// TestJournalHeaderMismatch: a journal from a different campaign must be
// rejected, not silently merged.
func TestJournalHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := kmeansConfig(t)
	cfg.Runs = 3
	cfg.Journal = path
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Journal = path
	bad.Seed++
	if _, err := Run(bad); err == nil {
		t.Error("journal with different seed accepted")
	}
	if _, _, err := ResumeJournal(filepath.Join(t.TempDir(), "absent.jsonl"), cfg); err == nil {
		t.Error("missing journal accepted")
	}
}

// TestCampaignInterruptAndResume is the checkpoint acceptance test: a
// campaign interrupted mid-flight (the SIGINT path minus the signal
// plumbing) and resumed from its journal must produce exactly the summary
// of an uninterrupted campaign.
func TestCampaignInterruptAndResume(t *testing.T) {
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
			if p.Done >= 2 {
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

	rcfg := cfg
	rcfg.Journal = path
	res, err := Run(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, full, res)
}

// panicHub blows up on every taint exchange, modeling a simulator bug that
// fires inside rank goroutines (the hooks run on the rank's own stack).
type panicHub struct{}

func (panicHub) Publish(tainthub.ReqID, tainthub.Key, uint64, []uint8) error {
	panic("injected test panic: publish")
}
func (panicHub) Poll(tainthub.ReqID, tainthub.Key, uint64) ([]uint8, bool, error) {
	panic("injected test panic: poll")
}
func (panicHub) Stats() tainthub.Stats { return tainthub.Stats{} }

// TestCampaignPanicIsolation: a panic inside single runs (down in the rank
// goroutines) must cost exactly those runs — recorded as
// OutcomeSimCrash — while the campaign completes and classifies the rest.
func TestCampaignPanicIsolation(t *testing.T) {
	app, err := apps.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sum, err := Run(Config{
		Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
		Ops: app.DefaultOps, TargetRank: app.TargetRank,
		Runs: 10, Bits: 1, Seed: 4242, Trace: true, Parallel: 2,
		Hub: panicHub{}, Obs: reg, KeepRunOutcomes: true,
	})
	if err != nil {
		t.Fatalf("campaign died instead of isolating the panic: %v", err)
	}
	if sum.SimCrash == 0 {
		t.Fatal("no run ever reached the panicking hub")
	}
	if got := reg.Counter("campaign_runs_panic_total").Value(); got != uint64(sum.SimCrash) {
		t.Errorf("campaign_runs_panic_total = %d, SimCrash = %d", got, sum.SimCrash)
	}
	crashes := 0
	for i, o := range sum.Outcomes {
		if o.Outcome == 0 {
			t.Errorf("run %d has no outcome", i)
		}
		if o.Outcome == OutcomeSimCrash {
			crashes++
			if o.PanicMsg == "" {
				t.Errorf("run %d: crash without panic message", i)
			}
		}
	}
	if crashes != sum.SimCrash {
		t.Errorf("outcome list has %d crashes, summary says %d", crashes, sum.SimCrash)
	}
}

// outageHub delegates to a TCP hub client and, at the Nth call, kills and
// restarts the server — deterministically placing a full hub outage in the
// middle of the campaign.
type outageHub struct {
	inner tainthub.Hub
	calls atomic.Int64
	at    int64
	once  sync.Once
	blast func()
}

func (o *outageHub) maybeBlast() {
	if o.calls.Add(1) == o.at {
		o.once.Do(o.blast)
	}
}

func (o *outageHub) Publish(id tainthub.ReqID, k tainthub.Key, seq uint64, masks []uint8) error {
	o.maybeBlast()
	return o.inner.Publish(id, k, seq, masks)
}

func (o *outageHub) Poll(id tainthub.ReqID, k tainthub.Key, seq uint64) ([]uint8, bool, error) {
	o.maybeBlast()
	return o.inner.Poll(id, k, seq)
}

// StartFlight makes the double a FlightStarter, as the client beneath it is:
// the campaign's messages cross the outage as flights.
func (o *outageHub) StartFlight(publish, poll tainthub.ReqID, k tainthub.Key, seq uint64, masks []uint8) tainthub.Flight {
	o.maybeBlast()
	return o.inner.(tainthub.FlightStarter).StartFlight(publish, poll, k, seq, masks)
}

func (o *outageHub) Stats() tainthub.Stats {
	o.maybeBlast()
	return o.inner.Stats()
}

// TestCampaignSurvivesHubOutage is the hub-outage acceptance test: the
// TaintHub server is killed and restarted mid-campaign; client retries and
// reconnects must carry every run through, and the summary must equal the
// uninterrupted (private-hub) campaign's.
func TestCampaignSurvivesHubOutage(t *testing.T) {
	app, err := apps.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
		Ops: app.DefaultOps, TargetRank: app.TargetRank,
		Runs: 40, Bits: 1, Seed: 4242, Trace: true, Parallel: 4,
	}
	baseline, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	local := tainthub.NewLocal()
	srv, err := tainthub.NewServer(local, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	defer func() { srv.Close() }()

	reg := obs.NewRegistry()
	client, err := tainthub.DialConfig(addr, tainthub.ClientConfig{
		RPCTimeout:  5 * time.Second,
		MaxAttempts: 20,
		BackoffBase: time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	hub := &outageHub{inner: client, at: 5, blast: func() {
		// Graceful close drains in-flight requests (their responses are
		// delivered), then the server restarts on the same address with the
		// same backing state — a head-node hub bouncing mid-campaign.
		if err := srv.Close(); err != nil {
			t.Errorf("outage close: %v", err)
		}
		for i := 0; ; i++ {
			s2, err := tainthub.NewServer(local, addr)
			if err == nil {
				srv = s2
				return
			}
			if i >= 100 {
				t.Errorf("could not rebind %s: %v", addr, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}}

	ocfg := cfg
	ocfg.Hub = hub
	outage, err := Run(ocfg)
	if err != nil {
		t.Fatalf("campaign failed across the hub outage: %v", err)
	}
	summariesEqual(t, baseline, outage)
	if hub.calls.Load() < hub.at {
		t.Fatalf("outage never triggered (%d hub calls)", hub.calls.Load())
	}
	if got := reg.Counter("hub_reconnects_total").Value(); got < 1 {
		t.Errorf("hub_reconnects_total = %d, want >= 1", got)
	}
}

// crashOnPublishHub triggers its blast at the Nth Publish — counting
// publishes, not all calls, guarantees the WAL holds durable records when
// the crash lands, whatever the poll/publish interleaving.
type crashOnPublishHub struct {
	inner tainthub.Hub
	pubs  atomic.Int64
	at    int64
	once  sync.Once
	blast func()
}

func (h *crashOnPublishHub) Publish(id tainthub.ReqID, k tainthub.Key, seq uint64, masks []uint8) error {
	if h.pubs.Add(1) == h.at {
		h.once.Do(h.blast)
	}
	return h.inner.Publish(id, k, seq, masks)
}

func (h *crashOnPublishHub) Poll(id tainthub.ReqID, k tainthub.Key, seq uint64) ([]uint8, bool, error) {
	return h.inner.Poll(id, k, seq)
}

// StartFlight counts a flight as its publish: the crash lands with flights of
// the other workers' runs on the wire.
func (h *crashOnPublishHub) StartFlight(publish, poll tainthub.ReqID, k tainthub.Key, seq uint64, masks []uint8) tainthub.Flight {
	if h.pubs.Add(1) == h.at {
		h.once.Do(h.blast)
	}
	return h.inner.(tainthub.FlightStarter).StartFlight(publish, poll, k, seq, masks)
}

func (h *crashOnPublishHub) Stats() tainthub.Stats { return h.inner.Stats() }

// TestCampaignSurvivesHubCrashDurable is the durability acceptance test
// (the tentpole's big claim): mid-campaign, the TaintHub is killed the
// hard way — server hard-aborted with responses in flight, hub abandoned
// with no final snapshot, exactly what kill -9 leaves behind — and a
// *fresh* hub process recovers from WAL+snapshot on the same address. The
// campaign runs under HubFailRun, so any lost or duplicated taint record
// fails a run loudly; the summary must be bitwise identical to an
// uninterrupted private-hub campaign.
func TestCampaignSurvivesHubCrashDurable(t *testing.T) {
	app, err := apps.ByName("matvec")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name: app.Name, Prog: app.Prog, WorldSize: app.WorldSize,
		Ops: app.DefaultOps, TargetRank: app.TargetRank,
		Runs: 40, Bits: 1, Seed: 4242, Trace: true, Parallel: 4,
	}
	baseline, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(t.TempDir(), "hub.wal")
	reg := obs.NewRegistry()
	durable, err := tainthub.OpenDurable(walPath, tainthub.DurableConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tainthub.NewServer(durable, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	defer func() { srv.Close(); durable.Close() }()

	client, err := tainthub.DialConfig(addr, tainthub.ClientConfig{
		RPCTimeout:  5 * time.Second,
		MaxAttempts: 20,
		BackoffBase: time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	hub := &crashOnPublishHub{inner: client, at: 3, blast: func() {
		// Pin durable state that provably predates the crash: concurrent
		// campaign publishes may still be in flight when the blast fires, so
		// without this the WAL could legitimately be empty and the replayed
		// assertion below would race.
		if err := durable.Publish(tainthub.ReqID{Client: 555, Seq: 1},
			tainthub.Key{Src: 0, Dst: 1, Tag: 1, NS: 999999}, 0, []uint8{0xee}); err != nil {
			t.Errorf("sentinel publish: %v", err)
		}
		// The crash: connections are severed with responses possibly
		// undelivered, and the hub is dropped without a final snapshot.
		srv.Abort()
		if err := durable.Abandon(); err != nil {
			t.Errorf("abandon: %v", err)
		}
		// The replacement process: cold recovery from WAL+snapshot.
		reborn, err := tainthub.OpenDurable(walPath, tainthub.DurableConfig{Obs: reg})
		if err != nil {
			t.Errorf("recovery: %v", err)
			return
		}
		durable = reborn
		for i := 0; ; i++ {
			s2, err := tainthub.NewServer(reborn, addr)
			if err == nil {
				srv = s2
				return
			}
			if i >= 100 {
				t.Errorf("could not rebind %s: %v", addr, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}}

	ccfg := cfg
	ccfg.Hub = hub
	ccfg.HubPolicy = core.HubFailRun
	crashed, err := Run(ccfg)
	if err != nil {
		t.Fatalf("campaign failed across the hub crash: %v", err)
	}
	summariesEqual(t, baseline, crashed)
	if hub.pubs.Load() < hub.at {
		t.Fatalf("crash never triggered (%d publishes)", hub.pubs.Load())
	}
	// Zero lost or duplicated taint, asserted via the durability counters:
	// the reborn process rebuilt its state from disk...
	if got := reg.Counter("tainthub_replayed_total").Value(); got == 0 {
		t.Error("tainthub_replayed_total = 0: recovery replayed nothing")
	}
	// ...and the client did retry across the crash (a retry whose original
	// landed before it repeats an idempotent operation).
	if got := reg.Counter("hub_rpc_retries_total").Value(); got == 0 {
		t.Error("hub_rpc_retries_total = 0: the crash was invisible to the client")
	}

	// Explicit check against the recovered hub: a poll retried under the
	// same ReqID returns the original masks.
	k := tainthub.Key{Src: 0, Dst: 1, Tag: 99, NS: 12345}
	if err := client.Publish(tainthub.ReqID{Client: 424242, Seq: 1}, k, 0, []uint8{0xcd}); err != nil {
		t.Fatal(err)
	}
	id := tainthub.ReqID{Client: 424242, Seq: 2}
	if masks, ok, _ := client.Poll(id, k, 0); !ok || masks[0] != 0xcd {
		t.Fatal("poll against recovered hub missed")
	}
	masks, ok, err := client.Poll(id, k, 0)
	if err != nil || !ok || masks[0] != 0xcd {
		t.Fatalf("replayed poll = %v, %v, %v; the retry dropped taint", masks, ok, err)
	}
}

// TestCorruptedMPICountClassifies replays the run PR 11's benchmark met as a
// simulator crash: matvec, seed 20200430, run 20 flips a bit that turns an
// MPI count into one whose byte length wraps past the hooks' size guard, and
// the taint scan of the "buffer" then walked gigabytes a byte at a time for
// 5.5 s before an allocation of the same size panicked. With the guard
// comparing by division the hooks leave the call to the MPI runtime, which
// rejects it: the run is a guest outcome, and a quick one.
func TestCorruptedMPICountClassifies(t *testing.T) {
	cfg := appConfig(t, "matvec")
	cfg.Seed, cfg.Runs, cfg.Parallel = 20200430, 40, 1
	cfg.Shard = &ShardRange{Lo: 20, Hi: 21}
	for _, noFork := range []bool{false, true} {
		cfg.NoFork = noFork
		start := time.Now()
		sum, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		out := sum.Outcomes[0]
		if out.Outcome != OutcomeTerminated || out.Term != TermMPI || sum.SimCrash != 0 {
			t.Errorf("NoFork=%v: outcome %s/%s (%q), want terminated/mpi-error", noFork, out.Outcome, out.Term, out.PanicMsg)
		}
		if took > time.Second {
			t.Errorf("NoFork=%v: the run took %v", noFork, took)
		}
	}
}
