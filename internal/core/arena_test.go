package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/asm"
	"chaser/internal/isa"
	"chaser/internal/memtest"
	"chaser/internal/tainthub"
	"chaser/internal/tcg"
	"chaser/internal/trace"
	"chaser/internal/vm"
)

// arenaCase is one run configuration the arena tests make cold and on
// recycled machines: from scratch (ws nil) or forked from ws.
type arenaCase struct {
	label string
	cfg   RunConfig
	ws    *WorldSnapshot
	// execs is the target rank's golden count of targeted executions, from
	// which other() draws other triggers.
	execs uint64
}

// result executes the case.
func (c arenaCase) result() (*RunResult, error) {
	if c.ws != nil {
		return RunForked(c.cfg, c.ws)
	}
	return Run(c.cfg)
}

// run executes the case on the test's goroutine.
func (c arenaCase) run(t testing.TB) *RunResult {
	t.Helper()
	res, err := c.result()
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	return res
}

// other returns the case with the i-th other trigger and seed: an unrelated
// run on the same guest, which leaves other pages, taint and output behind.
func (c arenaCase) other(i int) arenaCase {
	spec := *c.cfg.Spec
	first := uint64(1)
	if c.ws != nil {
		first = c.ws.site.N
	}
	spec.Cond = Deterministic{N: first + uint64(i)*7919%(c.execs-first)}
	spec.Seed = int64(1000 + i)
	c.cfg.Spec = &spec
	c.label = fmt.Sprintf("%s, other #%d", c.label, i)
	return c
}

// arenaCases returns lud, matvec, bfs and clamr_mpi, each injected at half
// its target rank's executions from scratch and forked from a rung at a
// quarter, untraced, traced and traced without the access log.
func arenaCases(t testing.TB) []arenaCase {
	t.Helper()
	var cases []arenaCase
	for _, name := range []string{"lud", "matvec", "bfs", "clamr_mpi"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cache := tcg.NewBaseCache(app.Prog)
		golden, err := Run(RunConfig{Prog: app.Prog, WorldSize: app.WorldSize, BaseCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		rank := app.WorldSize - 1
		var execs uint64
		for _, op := range app.DefaultOps {
			execs += golden.Counters[rank].PerOp[op]
		}
		for _, mode := range []string{"untraced", "traced", "log-less"} {
			cfg := RunConfig{
				Prog: app.Prog, WorldSize: app.WorldSize, BaseCache: cache, NoAccessLog: mode == "log-less",
				Spec: &Spec{
					Target: app.Name, Ops: app.DefaultOps, TargetRank: rank,
					Cond: Deterministic{N: execs / 2}, Bits: 1, Seed: 7, Trace: mode != "untraced",
				},
			}
			ws, err := PrefixRun(cfg, ForkSite{Rank: rank, N: execs / 4})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases,
				arenaCase{label: name + "/" + mode + "/scratch", cfg: cfg, execs: execs},
				arenaCase{label: name + "/" + mode + "/forked", cfg: cfg, ws: ws, execs: execs})
		}
	}
	return cases
}

// sameResult fails unless two results of one configuration agree on
// everything a run reports, exactly: terminations, outputs, consoles,
// counters (translation-block statistics included: a recycled chain table
// starts as empty as a new one), injection records, the propagation log byte
// for byte, and the hub statistics.
func sameResult(t *testing.T, label string, want, got *RunResult) {
	t.Helper()
	for _, f := range []struct {
		name      string
		want, got any
	}{
		{"terminations", want.Terms, got.Terms},
		{"outputs", want.Outputs, got.Outputs},
		{"consoles", want.Consoles, got.Consoles},
		{"counters", want.Counters, got.Counters},
		{"injection records", want.Records, got.Records},
		{"hub statistics", want.HubStats, got.HubStats},
		{"trace summaries", summarize(want), summarize(got)},
	} {
		if !reflect.DeepEqual(f.want, f.got) {
			t.Errorf("%s: %s differ:\n cold     %v\n recycled %v", label, f.name, f.want, f.got)
		}
	}
	sameLog(t, label, want, got)
}

// coldRuns runs every case on an empty arena pool.
func coldRuns(t *testing.T, cases []arenaCase) []*RunResult {
	t.Helper()
	cold := make([]*RunResult, len(cases))
	for i, c := range cases {
		memtest.Drain()
		cold[i] = c.run(t)
	}
	return cold
}

// churn makes n unrelated runs of the cases on four goroutines, so the pool
// holds arenas full of other runs' machines, pages, taint and output.
func churn(t *testing.T, cases []arenaCase, n int) {
	t.Helper()
	var wg sync.WaitGroup
	var next atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)); i <= n; i = int(next.Add(1)) {
				c := cases[i%len(cases)].other(i)
				if _, err := c.result(); err != nil {
					t.Errorf("%s: %v", c.label, err)
				}
			}
		}()
	}
	wg.Wait()
}

// countNewArenas empties the pool and counts, until the test ends, the
// arenas it has to make because none was put back.
func countNewArenas(t *testing.T) *atomic.Int64 {
	t.Helper()
	memtest.Drain()
	var n atomic.Int64
	prev := arenas.New
	arenas.New = func() any {
		n.Add(1)
		return &session{arena: new(vm.Arena)}
	}
	t.Cleanup(func() { arenas.New = prev })
	return &n
}

// TestArenaRunsMatchColdRuns: a run on machines, pages, shadows and buffers
// that 200 unrelated runs on four goroutines used before it is the run it is
// on fresh ones — on lud, matvec, bfs and clamr_mpi, from scratch and forked,
// untraced, traced and traced without the log.
func TestArenaRunsMatchColdRuns(t *testing.T) {
	cases := arenaCases(t)
	cold := coldRuns(t, cases)
	made := countNewArenas(t)
	churn(t, cases, 200)
	for i, c := range cases {
		sameResult(t, c.label, cold[i], c.run(t))
	}
	// Four goroutines need at least four arenas; a pool that recycled
	// nothing would have made one per run.
	n := made.Load()
	t.Logf("%d runs made %d arenas", 200+len(cases), n)
	if n >= int64(200+len(cases))/2 {
		t.Errorf("%d runs made %d arenas: the runs did not recycle them", 200+len(cases), n)
	}
}

// resultCopy is a deep copy of what a RunResult reports.
type resultCopy struct {
	terms    []vm.Termination
	outputs  [][]byte
	consoles []string
	counters []vm.Counters
	records  []InjectionRecord
	// events are the access log's records, physical addresses and region
	// names included; log is the whole propagation log as written.
	events  []trace.Event
	log     []byte
	summary traceSummary
	hub     tainthub.Stats
	// The collector's other sections: its timeline (a forked run's starts
	// with its rung's samples, shared) and its cross-rank, send and output
	// records.
	timeline  []trace.TimelinePoint
	crossRank []trace.CrossRankRecord
	sends     []trace.SendRecord
	outputRec []trace.OutputRecord
}

func copyResult(t *testing.T, r *RunResult) resultCopy {
	t.Helper()
	c := resultCopy{
		terms:    append([]vm.Termination(nil), r.Terms...),
		consoles: append([]string(nil), r.Consoles...),
		counters: append([]vm.Counters(nil), r.Counters...),
		records:  append([]InjectionRecord(nil), r.Records...),
		events:   r.Trace.Events(),
		summary:  summarize(r),
		hub:      r.HubStats,

		timeline:  r.Trace.Timeline(),
		crossRank: r.Trace.CrossRank(),
		sends:     r.Trace.Sends(),
		outputRec: r.Trace.Outputs(),
	}
	for _, o := range r.Outputs {
		c.outputs = append(c.outputs, bytes.Clone(o))
	}
	var log bytes.Buffer
	if _, err := r.Trace.WriteTo(&log); err != nil {
		t.Fatal(err)
	}
	c.log = log.Bytes()
	return c
}

// TestRetainedResultSurvivesReuse: a result holds copies, never a recycled
// machine's memory, and its collector is its run's own, never the one a
// recycled session hands the next run. Results kept while 200 later runs
// recycle the sessions they were made on — their machines, Chaser and world
// — read as they did when they were returned: the access log, the timeline
// and every other section of the collector.
func TestRetainedResultSurvivesReuse(t *testing.T) {
	cases := arenaCases(t)
	kept := make([]*RunResult, len(cases))
	copies := make([]resultCopy, len(cases))
	for i, c := range cases {
		kept[i] = c.run(t)
		copies[i] = copyResult(t, kept[i])
	}
	for i := 0; i < 200; i++ {
		cases[i%len(cases)].other(i).run(t)
	}
	for i, c := range cases {
		if got := copyResult(t, kept[i]); !reflect.DeepEqual(got, copies[i]) {
			t.Errorf("%s: a kept result changed while later runs recycled its machines", c.label)
		}
	}
}

// panicHub panics on its first publish: a simulator bug in a run's hub.
type panicHub struct{ tainthub.Hub }

func (panicHub) Publish(tainthub.ReqID, tainthub.Key, uint64, []uint8) error {
	panic("hub bug")
}

// TestArenaNotReturnedByAbortedRuns: a run whose watchdog fired may still
// have its callback aborting its machines — a prefix run's as well — and a
// run that panicked left them wherever the panic did; none puts its arena
// back, and the runs after them are their cold twins.
func TestArenaNotReturnedByAbortedRuns(t *testing.T) {
	cases := arenaCases(t)
	cold := coldRuns(t, cases)
	// A guest that loops until its budget of 200 million instructions is
	// spent: its watchdog fires long before.
	spin, err := asm.Assemble("spin", "main:\n    jmp main\n")
	if err != nil {
		t.Fatal(err)
	}
	aborted := map[string]func() error{
		"watchdog fired": func() error {
			res, err := Run(RunConfig{Prog: spin, Timeout: time.Nanosecond})
			if err == nil && res.Terms[0].Reason != vm.ReasonTimeout {
				return fmt.Errorf("a 1 ns deadline let the guest end with %v", res.Terms[0])
			}
			return err
		},
		"prefix watchdog fired": func() error {
			_, err := PrefixRun(RunConfig{Prog: spin, Timeout: time.Nanosecond, Spec: &Spec{
				Target: "spin", Ops: []isa.Op{isa.OpJmp},
			}}, ForkSite{Rank: 0, N: 1 << 40})
			if err == nil || !strings.Contains(err.Error(), "timeout") {
				return fmt.Errorf("a 1 ns deadline ended the prefix run with %v", err)
			}
			return nil
		},
		"hub panicked": func() (err error) {
			defer func() {
				if recover() == nil {
					err = fmt.Errorf("the hub was never called")
				}
			}()
			_, err = Run(RunConfig{Prog: crossProg(t), WorldSize: 2, Hub: panicHub{tainthub.NewLocal()}, Spec: &Spec{
				Target: "cross_app", Ops: []isa.Op{isa.OpFAdd}, TargetRank: 0,
				Cond: Deterministic{N: 4}, Bits: 1, Trace: true, Seed: 11,
			}})
			return err
		},
	}
	for name, run := range aborted {
		made := countNewArenas(t)
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := made.Load(); n != 1 {
			t.Fatalf("%s: the run took %d arenas, want 1", name, n)
		}
		cases[0].run(t)
		if n := made.Load(); n != 2 {
			t.Errorf("%s: the run put its arena back", name)
		}
		for i := 0; i < 100; i++ {
			c := cases[i%len(cases)]
			sameResult(t, name+": "+c.label, cold[i%len(cases)], c.run(t))
		}
	}
}
