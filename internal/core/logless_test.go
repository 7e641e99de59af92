package core

import (
	"reflect"
	"testing"

	"chaser/internal/isa"
	"chaser/internal/obs"
)

// TestLogLessRunMatchesLoggedRun: under NoAccessLog a traced run
// is the run it would have been — terminations, outputs, counters, injection
// records, timeline, cross-rank, send and output records, hub traffic —
// except that its machines carry no tainted-access hook and its collector
// holds no access and says so, down to the provenance graph. Started at
// program entry and forked.
func TestLogLessRunMatchesLoggedRun(t *testing.T) {
	cfg := RunConfig{
		Prog: crossProg(t), WorldSize: 2,
		Spec: &Spec{
			Target: "cross_app", Ops: []isa.Op{isa.OpFAdd}, TargetRank: 0,
			Cond: Deterministic{N: 4}, Bits: 1, Trace: true, Seed: 11,
		},
	}
	ws, err := PrefixRun(cfg, ForkSite{Rank: 0, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(RunConfig) (*RunResult, error){
		"from scratch": Run,
		"forked":       func(c RunConfig) (*RunResult, error) { return RunForked(c, ws) },
	} {
		t.Run(name, func(t *testing.T) {
			kept, bare := cfg, cfg
			kept.Obs, bare.Obs = obs.NewRegistry(), obs.NewRegistry()
			bare.NoAccessLog = true
			want, err := run(kept)
			if err != nil {
				t.Fatal(err)
			}
			got, err := run(bare)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Trace.AccessLogKept() || want.Trace.Stored() == 0 || !want.Trace.Propagated() {
				t.Fatalf("reference run: log kept %v, %d accesses stored, propagated %v",
					want.Trace.AccessLogKept(), want.Trace.Stored(), want.Trace.Propagated())
			}
			for _, f := range []struct {
				what      string
				want, got any
			}{
				{"terminations", want.Terms, got.Terms},
				{"outputs", want.Outputs, got.Outputs},
				{"consoles", want.Consoles, got.Consoles},
				{"counters", want.Counters, got.Counters},
				{"injection records", want.Records, got.Records},
				{"timeline", want.Trace.Timeline(), got.Trace.Timeline()},
				{"cross-rank records", want.Trace.CrossRank(), got.Trace.CrossRank()},
				{"send records", want.Trace.Sends(), got.Trace.Sends()},
				{"output records", want.Trace.Outputs(), got.Trace.Outputs()},
				{"hub stats", want.HubStats, got.HubStats},
			} {
				if !reflect.DeepEqual(f.want, f.got) {
					t.Errorf("%s differ without the access log:\n kept %+v\n none %+v", f.what, f.want, f.got)
				}
			}
			var reads, writes uint64
			for _, c := range got.Counters {
				reads, writes = reads+c.TaintedMemReads, writes+c.TaintedMemWrites
			}
			if reads != want.Trace.TotalReads() || writes != want.Trace.TotalWrites() || reads == 0 || writes == 0 {
				t.Errorf("the log-less run counted %d/%d tainted reads/writes, the log holds %d/%d",
					reads, writes, want.Trace.TotalReads(), want.Trace.TotalWrites())
			}
			if got.Trace.AccessLogKept() || got.Trace.Stored() != 0 || got.Trace.Dropped() != 0 {
				t.Errorf("log-less collector: kept %v, stored %d, dropped %d",
					got.Trace.AccessLogKept(), got.Trace.Stored(), got.Trace.Dropped())
			}
			if g := got.Provenance(); !g.NoAccessLog || len(g.Nodes) == 0 {
				t.Errorf("log-less provenance: NoAccessLog %v, %d nodes (want the mark, and the injection, message and output nodes)",
					g.NoAccessLog, len(g.Nodes))
			}
			if g := want.Provenance(); g.NoAccessLog {
				t.Error("the logged run's provenance is marked as log-less")
			}
			if k, b := kept.Obs.Counter("core_runs_access_log_kept_total").Value(), bare.Obs.Counter("core_runs_access_log_kept_total").Value(); k != 1 || b != 0 {
				t.Errorf("core_runs_access_log_kept_total = %d for the logged run and %d for the log-less one, want 1 and 0", k, b)
			}
		})
	}

	// No machine of a log-less world has a tainted-access hook; every machine
	// of a logged traced world has both.
	for _, noLog := range []bool{false, true} {
		c := cfg
		c.NoAccessLog = noLog
		_, world := armedWorld(t, c, nil)
		for r := 0; r < c.WorldSize; r++ {
			h := world.Machine(r).Hooks
			if hooked := h.TaintedMemRead != nil && h.TaintedMemWrite != nil; hooked == noLog {
				t.Errorf("NoAccessLog %v: rank %d tainted-access hooks installed: %v", noLog, r, hooked)
			}
			if h.Sample == nil || h.PreSyscall == nil || h.PostSyscall == nil {
				t.Errorf("NoAccessLog %v: rank %d lost a hook the log does not own: %+v", noLog, r, h)
			}
		}
	}
}

// TestLogLessChaserBuildsOneCollector: a Chaser for a run that keeps no log
// builds the collector that says so, and no other: New costs what it costs
// for a run that keeps its log, and so does a session's reset — nothing when
// it empties the collector it has, one collector when a result took it.
func TestLogLessChaserBuildsOneCollector(t *testing.T) {
	build := func(noLog bool) float64 {
		return testing.AllocsPerRun(50, func() { New(Options{NoAccessLog: noLog}) })
	}
	if logged, logless := build(false), build(true); logless != logged {
		t.Errorf("New makes %v allocations for a log-less run, %v for a logged one", logless, logged)
	}
	for _, noLog := range []bool{false, true} {
		ch := New(Options{NoAccessLog: noLog})
		if ch.Trace().AccessLogKept() == noLog {
			t.Fatalf("NoAccessLog %v: the collector keeps the log: %v", noLog, ch.Trace().AccessLogKept())
		}
		for _, taken := range []bool{false, true} {
			if taken {
				ch.collector = nil
			}
			ch.reset(nil)
			if ch.Trace().AccessLogKept() == noLog {
				t.Errorf("NoAccessLog %v, collector taken %v: after a reset the collector keeps the log: %v",
					noLog, taken, ch.Trace().AccessLogKept())
			}
		}
		if n := testing.AllocsPerRun(50, func() { ch.reset(nil) }); n != 0 {
			t.Errorf("NoAccessLog %v: a reset makes %v allocations, want 0", noLog, n)
		}
		if n := testing.AllocsPerRun(50, func() { ch.collector = nil; ch.reset(nil) }); n != 1 {
			t.Errorf("NoAccessLog %v: a reset after a result took the collector makes %v allocations, want 1 (the collector)", noLog, n)
		}
	}
}
