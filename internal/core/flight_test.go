package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/decaf"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
	"chaser/internal/tainthub/hubtest"
	"chaser/internal/vm"
)

// lazyHub does to the hooks what a tainthub.Client does, with no wire and no
// timing: StartFlight makes no call, Collect makes both. A world on it learns
// everything about a message where a world over TCP learns it at the latest —
// at the receive hook, or in the drain.
type lazyHub struct{ tainthub.Hub }

type lazyFlight func() tainthub.FlightResult

func (f lazyFlight) Collect() tainthub.FlightResult { return f() }

func (h lazyHub) StartFlight(publish, poll tainthub.ReqID, k tainthub.Key, seq uint64, masks []uint8) tainthub.Flight {
	return lazyFlight(func() tainthub.FlightResult {
		return tainthub.SettleFlight(h.Hub, publish, poll, k, seq, masks)
	})
}

// servedHub serves hub over TCP behind a frame-counting proxy and returns a
// client that dials the proxy; everything is closed with the test.
func servedHub(t *testing.T, hub tainthub.Hub, cfg tainthub.ClientConfig) (*tainthub.Client, *hubtest.Proxy) {
	t.Helper()
	srv, err := tainthub.NewServer(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := hubtest.NewProxy(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client, err := tainthub.DialConfig(proxy.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		proxy.Close()
		srv.Close()
	})
	return client, proxy
}

func openDurable(t *testing.T) *tainthub.Durable {
	t.Helper()
	durable, err := tainthub.OpenDurable(filepath.Join(t.TempDir(), "hub.wal"), tainthub.DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	return durable
}

// clamrFault is the traced clamr_mpi run of the verify notes: 100 tainted
// messages, every one received.
func clamrFault(t *testing.T) RunConfig {
	t.Helper()
	app, err := apps.ByName("clamr_mpi")
	if err != nil {
		t.Fatal(err)
	}
	return RunConfig{
		Prog: app.Prog, WorldSize: app.WorldSize,
		Spec: &Spec{
			Target: app.Name, Ops: app.DefaultOps, TargetRank: 0,
			Cond: Deterministic{N: 1000}, Bits: 1, Seed: 5, Trace: true,
		},
	}
}

// TestOneFrameATaintedMessage counts, through a listener in front of a
// durable hub's server, the request frames a run costs: one per tainted
// message — its publish and its poll aboard — where the two synchronous calls
// took two, and none to ask for statistics; a clean traced run and an untraced
// run send nothing at all.
func TestOneFrameATaintedMessage(t *testing.T) {
	durable := openDurable(t)
	// MaxBatch 1: the writer coalesces nothing, so the frames counted are the
	// hooks' own (with the default, flights started back to back share frames
	// and a run costs fewer still).
	client, proxy := servedHub(t, durable, tainthub.ClientConfig{MaxBatch: 1})

	cfg := clamrFault(t)
	cfg.Hub = tainthub.WithNamespace(client, 3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const messages = 100
	if res.HubStats != (tainthub.Stats{Published: messages, Polls: messages, Hits: messages}) {
		t.Errorf("the run counted %+v, want %d publishes, polls and hits", res.HubStats, messages)
	}
	if len(res.Trace.Sends()) != messages || len(res.Trace.CrossRank()) != messages {
		t.Errorf("%d send records, %d cross-rank records, want %d each",
			len(res.Trace.Sends()), len(res.Trace.CrossRank()), messages)
	}
	if proxy.Frames() != messages || proxy.Requests() != 2*messages {
		t.Errorf("%d tainted messages cost %d frames carrying %d requests, want %d and %d",
			messages, proxy.Frames(), proxy.Requests(), messages, 2*messages)
	}
	if st := durable.Stats(); st.Published != messages || st.Polls != messages || st.Hits != messages {
		t.Errorf("the hub served %+v", st)
	}

	before := proxy.Frames()
	clean := clamrFault(t)
	clean.Hub = tainthub.WithNamespace(client, 4)
	clean.Spec.Cond = Deterministic{N: 1 << 40} // never fires
	if res, err = Run(clean); err != nil {
		t.Fatal(err)
	} else if res.Injected() {
		t.Fatal("the clean run injected")
	}
	untraced := clamrFault(t)
	untraced.Hub = tainthub.WithNamespace(client, 5)
	untraced.Spec.Trace = false
	if res, err = Run(untraced); err != nil {
		t.Fatal(err)
	} else if !res.Injected() {
		t.Fatal("the untraced run did not inject")
	}
	if got := proxy.Frames() - before; got != 0 {
		t.Errorf("a clean traced run and an untraced run sent the hub %d frames", got)
	}
}

// dyingSenderProg: rank 0 sums floats (fadd), sends the sum to rank 1 and
// fails an assertion, which aborts the world before rank 1 — the
// higher rank, not yet run — reaches its receive. A fault in the sum starts a
// flight nobody collects.
func dyingSenderProg(t *testing.T) *isa.Program {
	t.Helper()
	I, V, B := lang.I, lang.V, lang.Block
	prog, err := lang.Compile(&lang.Program{Name: "dying_sender", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.If{
				Cond: lang.Eq(lang.RankExpr{}, I(0)),
				Then: B(
					lang.Let("s", lang.F(0)),
					lang.For{Var: "i", From: I(0), To: I(8), Body: B(
						lang.Set("s", lang.Add(V("s"), lang.F(0.25))),
					)},
					lang.SetAt(V("buf"), I(0), V("s")),
					lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeFloat64),
						Dest: I(1), Tag: I(3)},
					lang.Assert{Cond: I(0), Code: 9},
				),
				Else: B(
					lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeFloat64),
						Source: I(0), Tag: I(3)},
					lang.OutFloat{E: lang.AtF(V("buf"), I(0))},
				),
			},
		),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestUncollectedFlightIsDrained: a run whose target dies between a tainted
// send and its receive is the same run — propagation log byte for byte,
// counters, injection records, its own hub count — from scratch and forked,
// on a private hub, on one that answers only when collected and on a durable
// hub over TCP; the drain, not a receive, settles the flight, and once the
// namespace is retired the hub holds nothing of it.
func TestUncollectedFlightIsDrained(t *testing.T) {
	durable := openDurable(t)
	client, proxy := servedHub(t, durable, tainthub.ClientConfig{})
	site := ForkSite{Rank: 0, N: 3}
	cfg := RunConfig{
		Prog: dyingSenderProg(t), WorldSize: 2,
		Spec: &Spec{
			Target: "dying_sender", Ops: []isa.Op{isa.OpFAdd}, TargetRank: site.Rank,
			Cond: Deterministic{N: 5}, Bits: 1, Trace: true, Seed: 7,
		},
	}
	ws, err := PrefixRun(cfg, site)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Terms[0].Abnormal() || len(want.Trace.Sends()) != 1 || len(want.Trace.CrossRank()) != 0 {
		t.Fatalf("the guest does not die between its tainted send and the receive: %v, %d sends, %d received",
			want.Terms, len(want.Trace.Sends()), len(want.Trace.CrossRank()))
	}
	if want.HubStats != (tainthub.Stats{Published: 1, Polls: 1, Hits: 1}) {
		t.Errorf("the run counted %+v", want.HubStats)
	}
	ns := 0
	for _, hub := range []struct {
		name string
		hub  func() tainthub.Hub
	}{
		{"private", func() tainthub.Hub { return nil }},
		{"collected-late", func() tainthub.Hub { return lazyHub{tainthub.NewLocal()} }},
		{"durable-tcp", func() tainthub.Hub { ns++; return tainthub.WithNamespace(client, ns) }},
	} {
		for _, forked := range []bool{false, true} {
			label := fmt.Sprintf("%s forked=%v", hub.name, forked)
			run := cfg
			run.Hub = hub.hub()
			var got *RunResult
			if forked {
				got, err = RunForked(run, ws)
			} else {
				got, err = Run(run)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			compareRuns(t, label, want, got)
			if got.HubStats != want.HubStats {
				t.Errorf("%s: the run counted %+v, want %+v", label, got.HubStats, want.HubStats)
			}
		}
	}
	if proxy.Frames() != 2 {
		t.Errorf("two runs over TCP sent %d frames, want one a run", proxy.Frames())
	}
	if st := durable.Stats(); st.Pending != 2 {
		t.Errorf("the hub holds %d entries before retirement, want the two drained flights' (%+v)", st.Pending, st)
	}
	if err := client.Retire(1, ns+1); err != nil {
		t.Fatal(err)
	}
	if st := durable.Stats(); st.Pending != 0 {
		t.Errorf("the hub holds %d entries after retirement", st.Pending)
	}
}

// TestReceiverAppliesTheHubsMasks: the hub answers every poll with one mask
// bit flipped. The flipped masks, not the published ones, are in the receiving
// rank's shadow memory afterwards: the masks a receiver applies are the bytes
// the hub's poll returned, never the sender's own copy — asked in place,
// collected late, or over TCP.
func TestReceiverAppliesTheHubsMasks(t *testing.T) {
	for _, reach := range []string{"in-process", "collected-late", "tcp"} {
		t.Run(reach, func(t *testing.T) {
			faulty := &faultyHub{Local: tainthub.NewLocal(), flipPoll: true}
			var hub tainthub.Hub = faulty
			switch reach {
			case "collected-late":
				hub = lazyHub{faulty}
			case "tcp":
				hub, _ = servedHub(t, faulty, tainthub.ClientConfig{})
			}
			cfg := tracedCrossConfig(t, hub, HubFailRun, nil)
			s := arenas.New().(*session)
			ch, err := s.open(cfg, cfg.WorldSize)
			if err != nil {
				t.Fatal(err)
			}
			// The receiver's shadow is read right behind its receive hook,
			// before the guest overwrites the buffer.
			var received []uint8
			s.platform.RegisterPostSyscallCB(func(_ decaf.ProcInfo, m *vm.Machine, sys isa.Sys) {
				if sys == isa.SysMPIRecv {
					received = m.Shadow.MemRangeMasks(m.GPR(isa.R1), 8)
				}
			})
			ch.Arm(cfg.Spec)
			world, err := s.newWorld(cfg, cfg.WorldSize, nil)
			if err != nil {
				t.Fatal(err)
			}
			world.Run()
			ch.view.drain()
			if err := ch.HubErr(); err != nil {
				t.Fatal(err)
			}
			published, replied := faulty.lastMasks()
			if len(published) != 8 || bytes.Equal(published, replied) {
				t.Fatalf("the hub was published %v and replied %v: nothing to tell apart", published, replied)
			}
			if !bytes.Equal(received, replied) {
				t.Errorf("the receiver's shadow holds %v; the hub's poll returned %v (the sender published %v)",
					received, replied, published)
			}
		})
	}
}

// hubEvents renders the hub events of a sink, without their timestamps.
func hubEvents(sink *obs.Sink) (string, int) {
	events, _ := sink.Since(0, 1<<14)
	var sb strings.Builder
	n := 0
	for _, ev := range events {
		if strings.HasPrefix(ev.Type, "hub_") {
			fmt.Fprintf(&sb, "%s %d %d %d %d %s\n", ev.Type, ev.Run, ev.Rank, ev.A, ev.B, ev.Msg)
			n++
		}
	}
	return sb.String(), n
}

// TestHubEventsKeepTheirOrder: with a sink attached, a healthy hub produces
// one stream of hub events however it is reached — hub_publish at the send
// hook, hub_poll_hit or hub_poll_miss at the receive hook — and it is the
// stream the synchronous hooks produced (its digest was taken at the commit
// before the flights).
func TestHubEventsKeepTheirOrder(t *testing.T) {
	const wantEvents, wantDigest = 484, "52a7bd74e5ad"
	client, _ := servedHub(t, openDurable(t), tainthub.ClientConfig{})
	var first string
	for _, hub := range []struct {
		name string
		hub  tainthub.Hub
	}{{"private", nil}, {"collected-late", lazyHub{tainthub.NewLocal()}}, {"durable-tcp", client}} {
		cfg := clamrFault(t)
		cfg.Hub, cfg.Events = hub.hub, obs.NewSink(1<<14)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		stream, n := hubEvents(cfg.Events)
		if first == "" {
			first = stream
			if digest := fmt.Sprintf("%x", sha256.Sum256([]byte(stream)))[:12]; n != wantEvents || digest != wantDigest {
				t.Errorf("%s: %d hub events, digest %s; the synchronous hooks emitted %d, digest %s",
					hub.name, n, digest, wantEvents, wantDigest)
			}
		} else if stream != first {
			t.Errorf("%s: the hub event stream differs from the private hub's", hub.name)
		}
	}
}

// TestHubFailureSchedule: a hub that refuses given publishes degrades a run
// exactly as it did when the hooks made their calls one by one — the counts,
// the propagation log (its sends section lists the acknowledged publishes in
// publish order) and the HubFailRun verdict with its first error, all taken
// at the commit before the flights — on an in-process hub. On a hub that
// answers only when collected, as over TCP, the one permitted difference is
// when a failure is learned: at the message's receive hook or in the drain,
// not at its send hook. The publish side is still settled in publish order,
// so everything pinned here comes out the same.
func TestHubFailureSchedule(t *testing.T) {
	for _, tc := range []struct {
		refuse      []int64
		sends       int
		logDigest   string
		firstHubErr string
	}{
		{nil, 100, "90761c615b92", ""},
		{[]int64{3}, 99, "6819ae888f8b", "publish: publish 3 refused"},
		{[]int64{3, 7, 40}, 97, "a34e65d00197", "publish: publish 3 refused"},
	} {
		for _, late := range []bool{false, true} {
			label := fmt.Sprintf("refuse=%v collected-late=%v", tc.refuse, late)
			newHub := func() tainthub.Hub {
				h := &faultyHub{Local: tainthub.NewLocal(), failPublish: make(map[int64]bool)}
				for _, n := range tc.refuse {
					h.failPublish[n] = true
				}
				if late {
					return lazyHub{h}
				}
				return h
			}
			reg := obs.NewRegistry()
			cfg := clamrFault(t)
			cfg.Hub, cfg.Obs = newHub(), reg
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var log bytes.Buffer
			if _, err := res.Trace.WriteTo(&log); err != nil {
				t.Fatal(err)
			}
			if got := reg.Counter("core_hub_degraded_total").Value(); got != uint64(len(tc.refuse)) {
				t.Errorf("%s: core_hub_degraded_total = %d, want %d", label, got, len(tc.refuse))
			}
			if got := reg.Counter("core_hub_taint_lost_total").Value(); got != 0 {
				t.Errorf("%s: core_hub_taint_lost_total = %d: a refused publish is not a lost taint", label, got)
			}
			if digest := fmt.Sprintf("%x", sha256.Sum256(log.Bytes()))[:12]; len(res.Trace.Sends()) != tc.sends || digest != tc.logDigest {
				t.Errorf("%s: %d send records, log digest %s; want %d, %s", label, len(res.Trace.Sends()), digest, tc.sends, tc.logDigest)
			}
			if want := uint64(tc.sends); res.HubStats.Published != want || res.HubStats.Hits != want {
				t.Errorf("%s: the run counted %+v, want %d acknowledged publishes, all found", label, res.HubStats, want)
			}

			cfg = clamrFault(t)
			cfg.Hub, cfg.HubPolicy = newHub(), HubFailRun
			_, err = Run(cfg)
			switch {
			case tc.firstHubErr == "" && err != nil:
				t.Errorf("%s: HubFailRun failed a sound run: %v", label, err)
			case tc.firstHubErr != "" && (err == nil || !strings.HasSuffix(err.Error(), tc.firstHubErr)):
				t.Errorf("%s: HubFailRun verdict %v, want the run failed with %q", label, err, tc.firstHubErr)
			}
		}
	}
}

// earlyCase runs clamrFault on a new faulty hub, reached as reach says, once
// under HubDegrade and once under HubFailRun, and renders what a run reports
// of its hub: its propagation log's digest, its own hub count, its first hub
// error and the HubFailRun verdict.
func earlyCase(t *testing.T, reg *obs.Registry, newHub func() *faultyHub, reach string) string {
	t.Helper()
	hub := func() tainthub.Hub {
		faulty := newHub()
		switch reach {
		case "collected-late":
			return lazyHub{faulty}
		case "tcp":
			client, _ := servedHub(t, faulty, tainthub.ClientConfig{MaxAttempts: 2})
			return client
		}
		return faulty
	}
	cfg := clamrFault(t)
	cfg.Hub, cfg.Obs = hub(), reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", reach, err)
	}
	var log bytes.Buffer
	if _, err := res.Trace.WriteTo(&log); err != nil {
		t.Fatal(err)
	}
	cfg.Hub, cfg.HubPolicy = hub(), HubFailRun
	_, verdict := Run(cfg)
	return fmt.Sprintf("log %x stats %+v err %v verdict %v",
		sha256.Sum256(log.Bytes()), res.HubStats, res.HubErr, verdict)
}

// TestEarlyReceiveMatchesSync: a run whose receives do not wait for the hub
// reports what a run whose receives wait reported — its propagation log byte
// for byte, its own hub count, its first hub error and its HubFailRun
// verdict, pinned at the commit before receives stopped waiting — on four
// faulty hubs (poll masks flipped, publishes dropped, acks lost, publishes 3,
// 7 and 40 refused), each asked in place, collected late and over TCP. On a
// hub that answers only when collected every one of those runs is rechecked;
// on a healthy durable hub over TCP none is.
func TestEarlyReceiveMatchesSync(t *testing.T) {
	faults := []struct {
		name string
		hub  func() *faultyHub
	}{
		{"poll-flipped", func() *faultyHub { return &faultyHub{Local: tainthub.NewLocal(), flipPoll: true} }},
		{"publishes-dropped", func() *faultyHub { return &faultyHub{Local: tainthub.NewLocal(), dropPublishes: true} }},
		{"acks-lost", func() *faultyHub { return &faultyHub{Local: tainthub.NewLocal(), publishErr: true} }},
		{"refused-3-7-40", func() *faultyHub {
			return &faultyHub{Local: tainthub.NewLocal(), failPublish: map[int64]bool{3: true, 7: true, 40: true}}
		}},
	}
	want := map[string]string{
		"poll-flipped/in-place":            "3c5b86f340d8",
		"poll-flipped/collected-late":      "3c5b86f340d8",
		"poll-flipped/tcp":                 "3c5b86f340d8",
		"publishes-dropped/in-place":       "cab35e4000e8",
		"publishes-dropped/collected-late": "cab35e4000e8",
		"publishes-dropped/tcp":            "cab35e4000e8",
		"acks-lost/in-place":               "223892d072d0",
		"acks-lost/collected-late":         "223892d072d0",
		"acks-lost/tcp":                    "90a6d5016c7f", // the error crossed the wire: "tainthub: ack lost"
		"refused-3-7-40/in-place":          "92caca35cbe4",
		"refused-3-7-40/collected-late":    "92caca35cbe4",
		"refused-3-7-40/tcp":               "7c9320c922cf", // likewise
	}
	for _, fault := range faults {
		for _, reach := range []string{"in-place", "collected-late", "tcp"} {
			label := fault.name + "/" + reach
			reg := obs.NewRegistry()
			got := earlyCase(t, reg, fault.hub, reach)
			digest := fmt.Sprintf("%x", sha256.Sum256([]byte(got)))[:12]
			if digest != want[label] {
				t.Errorf("%s: digest %s, want %s; the run reported %s", label, digest, want[label], got)
			}
			wantRechecked := uint64(2)
			if reach == "in-place" {
				wantRechecked = 0
			}
			if n := reg.Counter("core_hub_rechecked_runs_total").Value(); n != wantRechecked {
				t.Errorf("%s: %d of 2 runs rechecked, want %d", label, n, wantRechecked)
			}
		}
	}

	client, _ := servedHub(t, openDurable(t), tainthub.ClientConfig{})
	reg := obs.NewRegistry()
	for i := 0; i < 20; i++ {
		cfg := clamrFault(t)
		cfg.Hub, cfg.Obs = tainthub.WithNamespace(client, i), reg
		cfg.Spec.Seed = int64(i)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.HubStats.Published == 0 || res.HubErr != nil {
			t.Fatalf("seed %d: the run published %d messages (hub error %v)", i, res.HubStats.Published, res.HubErr)
		}
	}
	if n := reg.Counter("core_hub_rechecked_runs_total").Value(); n != 0 {
		t.Errorf("a healthy hub had %d of 20 runs rechecked", n)
	}
}

// TestEventOrderOnFaultyHub pins the order of the events of a traced
// clamr_mpi run on a hub that refuses publishes 3, 7 and 40: the sequence of
// event types, as this commit emits it. Asked in place, the hub's answers
// come at the hooks: 538 events, each hub_publish_error right behind its
// hub_publish. Over TCP the run's first attempt applies every receive's
// masks without waiting, emits hub_poll_hit where a refused publish left the
// hub nothing, and its drain, finding a receive the hub does not confirm,
// emits nothing more; the recheck's 538 events follow, in which two of the
// three hub_publish_error events come later, where the message's receive
// hook learned the failure, not at its send hook.
func TestEventOrderOnFaultyHub(t *testing.T) {
	want := map[string]struct {
		events int
		digest string
	}{
		"in-place": {538, "208c41b2ff20"},
		"tcp":      {1073, "92dd4d9dfe43"},
	}
	for _, reach := range []string{"in-place", "tcp"} {
		faulty := &faultyHub{Local: tainthub.NewLocal(), failPublish: map[int64]bool{3: true, 7: true, 40: true}}
		var hub tainthub.Hub = faulty
		if reach == "tcp" {
			hub, _ = servedHub(t, faulty, tainthub.ClientConfig{MaxAttempts: 2})
		}
		cfg := clamrFault(t)
		cfg.Hub, cfg.Events = hub, obs.NewSink(1<<14)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		events, _ := cfg.Events.Since(0, 1<<14)
		var types strings.Builder
		for _, ev := range events {
			types.WriteString(ev.Type)
			types.WriteByte('\n')
		}
		digest := fmt.Sprintf("%x", sha256.Sum256([]byte(types.String())))[:12]
		if w := want[reach]; len(events) != w.events || digest != w.digest {
			t.Errorf("%s: %d events, type sequence digest %s; want %d, %s", reach, len(events), digest, w.events, w.digest)
		}
	}
}

// spinningReceiverProg is crossProg whose receiver, once it has received,
// spins until its watchdog stops it.
func spinningReceiverProg(t *testing.T) *isa.Program {
	t.Helper()
	I, V, B := lang.I, lang.V, lang.Block
	prog, err := lang.Compile(&lang.Program{Name: "cross_app", Funcs: []*lang.Func{{
		Name: "main",
		Body: B(
			lang.Let("buf", lang.Alloc(I(1))),
			lang.If{
				Cond: lang.Eq(lang.RankExpr{}, I(0)),
				Then: B(
					lang.Let("s", lang.F(0)),
					lang.For{Var: "i", From: I(0), To: I(8), Body: B(
						lang.Set("s", lang.Add(V("s"), lang.F(0.25))),
					)},
					lang.SetAt(V("buf"), I(0), V("s")),
					lang.MPISend{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeFloat64),
						Dest: I(1), Tag: I(3)},
				),
				Else: B(
					lang.MPIRecv{Buf: V("buf"), Count: I(1), Dtype: int64(isa.TypeFloat64),
						Source: I(0), Tag: I(3)},
					lang.While{Cond: I(1)},
				),
			},
		),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// interruptedHub answers like lazyHub, but a flight's Collect waits until
// the world_interrupt event of a watchdog is in the sink (or a few seconds
// pass): the answer a drain checks comes in behind a fired watchdog.
type interruptedHub struct {
	lazyHub
	sink *obs.Sink
}

func (h interruptedHub) StartFlight(publish, poll tainthub.ReqID, k tainthub.Key, seq uint64, masks []uint8) tainthub.Flight {
	f := h.lazyHub.StartFlight(publish, poll, k, seq, masks)
	return lazyFlight(func() tainthub.FlightResult {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			events, _ := h.sink.Since(0, 1<<10)
			if slices.ContainsFunc(events, func(ev obs.Event) bool { return ev.Type == "world_interrupt" }) {
				break
			}
		}
		return f.Collect()
	})
}

// TestRecheckAfterWatchdog: a run whose first attempt's watchdog fired and
// whose drain then finds an answer that does not confirm a receive (the hub
// flips the masks of every poll) is rechecked on a fresh session — the
// watchdog's callback may still be aborting the first attempt's world — and
// ends, as its first attempt did, with its timeout termination. Neither
// session goes back to the pool.
func TestRecheckAfterWatchdog(t *testing.T) {
	sink := obs.NewSink(1 << 10)
	reg := obs.NewRegistry()
	faulty := &faultyHub{Local: tainthub.NewLocal(), flipPoll: true}
	cfg := RunConfig{
		Prog: spinningReceiverProg(t), WorldSize: 2,
		Hub:     interruptedHub{lazyHub{faulty}, sink},
		Timeout: 20 * time.Millisecond,
		Obs:     reg, Events: sink,
		Spec: &Spec{
			Target: "cross_app", Ops: []isa.Op{isa.OpFAdd}, TargetRank: 0,
			Cond: Deterministic{N: 4}, Bits: 1, Trace: true, Seed: 11,
		},
	}
	made := countNewArenas(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("core_hub_rechecked_runs_total").Value(); n != 1 {
		t.Fatalf("%d runs rechecked, want 1", n)
	}
	if res.Terms[1].Reason != vm.ReasonTimeout {
		t.Errorf("the receiver ended with %v, want its timeout", res.Terms[1])
	}
	if !res.Trace.Propagated() || len(res.Trace.CrossRank()) != 1 {
		t.Errorf("the recheck received %d tainted messages, want 1", len(res.Trace.CrossRank()))
	}
	if n := made.Load(); n != 2 {
		t.Errorf("the run and its recheck took %d sessions, want 2", n)
	}
	if _, err := Run(RunConfig{Prog: crossProg(t), WorldSize: 2}); err != nil {
		t.Fatal(err)
	}
	if n := made.Load(); n != 3 {
		t.Errorf("the rechecked run put a session back")
	}
}
