package core

import (
	"fmt"
	"reflect"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
)

// TestPrefixRungOutlivesItsSession: a prefix run is a run on a pooled session,
// which it hands back once its world is captured, and the session's next run
// reuses everything that world and its Chaser held, the storage of the rank
// states' flow-sequence numbers included. A rung keeps copies. A traced
// clamr_mpi rung, taken where its ranks have sent and received, is forked
// after 60 unrelated runs of its session shape on the same goroutine, which
// draw the session it was built on; at several triggers each fork is the run
// a from-scratch Run gives: terminations, outputs, counters, records, the
// timeline, the cross-rank and send records with their sequence numbers, and
// the hub statistics.
func TestPrefixRungOutlivesItsSession(t *testing.T) {
	app, err := apps.ByName("clamr_mpi")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := Run(RunConfig{Prog: app.Prog, WorldSize: app.WorldSize})
	if err != nil {
		t.Fatal(err)
	}
	rank := app.WorldSize - 1
	var execs uint64
	for _, op := range app.DefaultOps {
		execs += golden.Counters[rank].PerOp[op]
	}
	// The prefix runs with no access log on the base of the run's hub, so
	// runs of this shape share its session.
	cfg := RunConfig{
		Prog: app.Prog, WorldSize: app.WorldSize, NoAccessLog: true,
		Spec: &Spec{
			Target: app.Name, Ops: app.DefaultOps, TargetRank: rank,
			Cond: Deterministic{N: execs / 2}, Bits: 1, Seed: 7, Trace: true,
		},
	}
	site := ForkSite{Rank: rank, N: execs / 4}
	ws, err := PrefixRun(cfg, site)
	if err != nil {
		t.Fatal(err)
	}
	flows := 0
	for r := range ws.resume.sendSeq {
		flows += len(ws.resume.sendSeq[r]) + len(ws.resume.recvSeq[r])
	}
	if flows == 0 {
		t.Fatal("no rank has sent or received at the site: a rung's sequence numbers could not show")
	}

	c := arenaCase{label: "clamr_mpi", cfg: cfg, execs: execs}
	for i := 0; i < 60; i++ {
		c.other(i).run(t)
	}

	crossed := 0
	for _, n := range []uint64{site.N, site.N + 1, execs * 3 / 8, execs / 2, execs * 3 / 4} {
		spec := *cfg.Spec
		spec.Cond = Deterministic{N: n}
		fcfg := cfg
		fcfg.Spec = &spec
		label := fmt.Sprintf("n=%d", n)
		want, err := Run(fcfg)
		if err != nil {
			t.Fatalf("%s: scratch: %v", label, err)
		}
		got, err := RunForked(fcfg, ws)
		if err != nil {
			t.Fatalf("%s: forked: %v", label, err)
		}
		compareRuns(t, label, want, got)
		for _, f := range []struct {
			name      string
			want, got any
		}{
			{"timelines", want.Trace.Timeline(), got.Trace.Timeline()},
			{"cross-rank records", want.Trace.CrossRank(), got.Trace.CrossRank()},
			{"send records", want.Trace.Sends(), got.Trace.Sends()},
			{"hub statistics", want.HubStats, got.HubStats},
		} {
			if !reflect.DeepEqual(f.want, f.got) {
				t.Errorf("%s: %s differ:\n scratch %v\n forked  %v", label, f.name, f.want, f.got)
			}
		}
		crossed += len(want.Trace.CrossRank())
	}
	if crossed == 0 {
		t.Fatal("no fork's taint crossed ranks: a wrong sequence number could not show")
	}
}

// TestPrefixRunLeavesNoTrace: a prefix run is uninjected, so it has no taint
// to publish or poll for and no tainted access to log. On a traced MPI
// configuration whose injected run does publish, through a hub that counts
// its calls, the prefix calls the hub not once and keeps no access log, while
// the run forked from it reaches the hub.
func TestPrefixRunLeavesNoTrace(t *testing.T) {
	hub := &faultyHub{Local: tainthub.NewLocal()}
	reg := obs.NewRegistry()
	cfg := tracedCrossConfig(t, hub, HubDegrade, reg)
	ws, err := PrefixRun(cfg, ForkSite{Rank: 0, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p, q := hub.publishes.Load(), hub.polls.Load(); p != 0 || q != 0 {
		t.Errorf("the prefix run published %d times and polled %d times", p, q)
	}
	if n := reg.Counter("core_runs_access_log_kept_total").Value(); n != 0 {
		t.Errorf("the prefix run kept its access log (core_runs_access_log_kept_total = %d)", n)
	}
	if _, err := RunForked(cfg, ws); err != nil {
		t.Fatal(err)
	}
	if hub.publishes.Load() == 0 || hub.polls.Load() == 0 {
		t.Fatal("the forked run never reached the hub: the prefix's silence shows nothing")
	}
}
