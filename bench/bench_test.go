package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	for p, want := range map[float64]float64{0.50: 50, 0.90: 90, 0.99: 99} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", p*100, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

// A tail percentile is reported only with ten samples beyond it; short of
// that it steps down the ladder, and the median is the floor.
func TestTailPercentileDowngrades(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, used float64
	}{
		{1000, 0.99, 0.99}, // exactly ten beyond
		{999, 0.99, 0.95},
		{300, 0.99, 0.95},
		{300, 0.95, 0.95},
		{199, 0.95, 0.90},
		{100, 0.99, 0.90},
		{50, 0.99, 0.75},
		{39, 0.99, 0.50},
		{20, 0.95, 0.50},
		{3, 0.99, 0.50},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, used := tailPercentile(xs, c.want)
		if used != c.used {
			t.Errorf("n=%d want p%v: reported p%v, want p%v", c.n, c.want*100, used*100, c.used*100)
		}
		if want := percentile(xs, c.used); c.used != 0.50 && v != want {
			t.Errorf("n=%d: value %v is not the p%v %v", c.n, v, c.used*100, want)
		}
		if c.used == 0.50 && v != median(xs) {
			t.Errorf("n=%d: value %v is not the median %v", c.n, v, median(xs))
		}
	}
}

// quartiles must cut where Python's statistics.quantiles(xs, n=4) cuts: the
// driver judges the benchmark's spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got, want := spread([]float64{1, 2, 4, 8, 16}), (12-1.5)/4; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{3}) != 0 {
		t.Error("spread of one sample is not 0")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// Self time is the span minus the union of its children, clipped to it:
// children that overlap are not subtracted twice, and the part of a child
// that sticks out of its parent is not subtracted at all.
func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.round", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "server.shard", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "server.shard", Start: ms(30), End: ms(60)},     // overlaps 2
		{ID: 4, Parent: 1, Name: "server.complete", Start: ms(90), End: ms(120)}, // sticks out
		{ID: 5, Parent: 2, Name: "tainthub.rpc", Start: ms(15), End: ms(25)},     // nested
		{ID: 6, Parent: 1, Name: "server.claim", Start: ms(35), End: ms(38)},     // inside 2 and 3
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: ms(40), // 100 - ([10,60] + [90,100])
		2: ms(20), // 30 - [15,25]
		3: ms(30),
		4: ms(30),
		5: ms(10),
		6: ms(3),
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}

	rows := selfTimeTable(spans)
	if rows[0].Name != "server.shard" || rows[0].Count != 2 || math.Abs(rows[0].SelfS-0.050) > 1e-12 {
		t.Errorf("largest self time row = %+v, want server.shard x2 with 0.050 s", rows[0])
	}
	// The round is the only container here: 40 of its 100 ms are in no
	// layer's span.
	if got := attributedShare(rows); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("attributed share = %v, want 0.6", got)
	}
}

// Worker-side spans open before the submitter knows the campaign's id; they
// are hung under the campaign's container when the spans are read out.
func TestRecorderLinksCampaignSpans(t *testing.T) {
	r := newRecorder()
	claim := r.begin("server.claim", 0, "", -1, 10)
	r.relabel(claim, "server.claim", "c000007", 2)
	r.end(claim)
	box := r.begin("server.wait_summary", 0, "c000007", -1, 0)
	r.bindCampaign("c000007", box)
	r.end(box)
	open := r.begin("server.shard", 0, "c000007", 0, 10) // never ended
	_ = open
	spans := r.closed()
	if len(spans) != 2 {
		t.Fatalf("closed() returned %d spans, want the 2 finished ones", len(spans))
	}
	if spans[0].Parent != box || spans[0].Shard != 2 {
		t.Errorf("claim span = %+v, want parent %d and shard 2", spans[0], box)
	}
	if spans[1].Parent != 0 {
		t.Errorf("the container became its own child: %+v", spans[1])
	}

	var nilRec *recorder
	if id := nilRec.begin("x", 0, "", -1, 0); id != 0 || nilRec.end(id) != 0 || nilRec.closed() != nil {
		t.Error("a nil recorder is not a no-op")
	}
}

func TestChromeTraceLoads(t *testing.T) {
	var buf bytes.Buffer
	err := writeChromeTrace(&buf, []span{
		{ID: 1, Name: "bench.round", Start: ms(1), End: ms(3), Shard: -1},
		{ID: 2, Parent: 1, Name: "server.shard", Start: ms(1), End: ms(2), Campaign: "c000000", Shard: 3, Lane: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			TS, Dur       float64
			PID, TID      int
			Args          map[string]string
		}
		DisplayTimeUnit string
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.DisplayTimeUnit != "ms" {
		t.Fatalf("trace = %+v", doc)
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "server.shard" || ev.Cat != "server" || ev.Ph != "X" || ev.TS != 1000 || ev.Dur != 1000 ||
		ev.TID != 11 || ev.Args["campaign"] != "c000000" || ev.Args["shard"] != "3" {
		t.Errorf("shard event = %+v", ev)
	}
}

func TestCountingProxyCountsBothDirections(t *testing.T) {
	echo, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		for {
			c, err := echo.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	p, err := newCountingProxy(echo.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", p.addr())
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("taint"), 2000) // 10,000 bytes
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, msg) {
		t.Error("the proxy changed the bytes")
	}
	if got := p.bytes.Load(); got != int64(2*len(msg)) {
		t.Errorf("proxy counted %d bytes, want %d", got, 2*len(msg))
	}
	done := make(chan struct{})
	go func() { p.close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("close did not return with a connection still open")
	}
	conn.Close()
	if _, err := net.Dial("tcp", p.addr()); err == nil {
		t.Error("the proxy still accepts after close")
	}
}

// BENCHMARK.json is what the driver reads; the catalogue in metrics.go is
// what the program prints. They must name the same things.
// TestRSSSamplerSeesResidentMemory maps and touches 32 MB while the sampler
// runs: the samples must rise by about that much, and a window shorter than
// a tick must still yield one.
func TestRSSSamplerSeesResidentMemory(t *testing.T) {
	s, err := startRSSSampler()
	if err != nil {
		t.Fatal(err)
	}
	if mb, err := s.stop(); err != nil || len(mb) != 1 || !(mb[0] > 0) {
		t.Fatalf("empty window: samples %v, err %v, want one positive sample", mb, err)
	}

	if s, err = startRSSSampler(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * rssEvery)
	// Mapped, not allocated: the Go heap may hand back memory that is
	// resident already.
	held, err := syscall.Mmap(-1, 0, 32<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(held)
	for i := range held {
		held[i] = 1 // touch every page
	}
	time.Sleep(4 * rssEvery)
	mb, err := s.stop()
	if err != nil {
		t.Fatal(err)
	}
	if rise := mb[len(mb)-1] - mb[0]; len(mb) < 3 || rise < 24 || rise > 64 {
		t.Errorf("%d samples from %.1f to %.1f MB around a 32 MB allocation", len(mb), mb[0], mb[len(mb)-1])
	}
}

// The host factor of a stretch is the mean CPU time of the kernel passes that
// ended in it over the nominal time; a stretch that holds none takes the
// factor of all passes.
func TestHostFactorBetween(t *testing.T) {
	t0 := time.Unix(1000, 0)
	hs := hostSamples{
		{t0.Add(ms(100)), calibNominalS},
		{t0.Add(ms(200)), 1.5 * calibNominalS},
		{t0.Add(ms(300)), 1.3 * calibNominalS},
		{t0.Add(ms(400)), 2.2 * calibNominalS},
	}
	factor, cpuS := hs.between(t0.Add(ms(150)), t0.Add(ms(300)))
	if math.Abs(factor-1.4) > 1e-12 || math.Abs(cpuS-2.8*calibNominalS) > 1e-12 {
		t.Errorf("two passes: factor %v cpu %v, want 1.4 and %v", factor, cpuS, 2.8*calibNominalS)
	}
	factor, cpuS = hs.between(t0.Add(ms(210)), t0.Add(ms(290)))
	if math.Abs(factor-1.5) > 1e-12 || cpuS != 0 {
		t.Errorf("no pass: factor %v cpu %v, want the overall 1.5 and 0", factor, cpuS)
	}
}

// The kernel's work is fixed, and the sampler runs it from the start, so
// that the shortest window has a pass.
func TestHostSamplerRunsTheSameKernel(t *testing.T) {
	a, b := newCalibKernel(), newCalibKernel()
	a.run(10_000)
	b.run(10_000)
	if a.reg != b.reg || a.reg == [16]uint64{} {
		t.Errorf("two kernels disagree or did nothing: %v %v", a.reg, b.reg)
	}
	s := startHostSampler()
	time.Sleep(calibEvery + calibEvery/2)
	hs := s.stop()
	if len(hs) < 2 {
		t.Fatalf("%d passes in one and a half periods, want at least 2", len(hs))
	}
	for _, h := range hs {
		if !(h.cpuS > calibNominalS/10 && h.cpuS < calibNominalS*20) {
			t.Errorf("a pass took %v s of CPU, nominal is %v", h.cpuS, calibNominalS)
		}
	}
}

// On an MPI guest one campaign of a submitter may be one run apart from its
// twin; anything more, or anything at all on a serial guest, is a difference.
func TestFirstDifferenceAllowsOneRunOnMPIGuests(t *testing.T) {
	report := func(injected, benign, sdc, detected int) string {
		return fmt.Sprintf("=== clamr_mpi: 200 runs (%d injected) ===\n  benign:     %6d  (%.2f%%)\n  sdc:        %6d  (36.50%%)\n  detected:   %6d  (27.00%%)\n  terminated:      0  (0.00%%)\n",
			injected, benign, float64(benign)/2, sdc, detected)
	}
	want := report(200, 73, 73, 54)
	notInjected := report(199, 73, 73, 53)
	for _, c := range []struct {
		name   string
		got    []string
		ranked bool
		at     int
	}{
		{"identical, serial", []string{want, want}, false, -1},
		{"identical, MPI", []string{want, want}, true, -1},
		{"one run not injected, MPI", []string{want, notInjected}, true, -1},
		{"one run not injected, serial", []string{want, notInjected}, false, 1},
		{"one run moved class, MPI", []string{report(200, 74, 72, 54), want}, true, -1},
		{"one run apart in two campaigns, MPI", []string{notInjected, notInjected}, true, 1},
		{"two runs moved class, MPI", []string{want, report(200, 75, 71, 54)}, true, 1},
		{"a line missing, MPI", []string{strings.Replace(want, "  terminated:      0  (0.00%)\n", "", 1), want}, true, 0},
		{"another campaign, MPI", []string{strings.Replace(want, "clamr_mpi", "matvec", 1), want}, true, 0},
	} {
		if at := firstDifference(c.ranked, c.got, []string{want, want}); at != c.at {
			t.Errorf("%s: first difference at %d, want %d", c.name, at, c.at)
		}
	}
	if at := firstDifference(false, []string{"anything"}, []string{""}); at != -1 {
		t.Errorf("a document without a twin differs at %d", at)
	}
}

func TestManifestMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var manifest struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", manifest.RunSeconds, defaultSeconds)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m := manifest.Workloads[i]; m.Name != w.name || m.Why != w.why {
			t.Errorf("workload %d: manifest %+v, program {%s %s}", i, m, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: manifest {%s %s %s}, catalogue {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v in the manifest, %v in the catalogue, and it must be in (0, 0.25]", kind, d.Name, g.Bound, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.Name)
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd, true)
	same("per_layer", manifest.PerLayer, perLayer, false)
}

// smokeSizes run every workload with about twenty runs a round.
var smokeSizes = sizes{
	samplingRuns: 20, sweepRuns: 4, sweepSlice: 2,
	clamrRuns: 16, clamrShards: 4, mixRuns: 5, mixShards: 2, mixBatch: 2,
	replaySamples: 2, overheadPairs: 2,
}

// inProcess runs the child's body in the test process.
func inProcess(o childOpts) (*childResult, float64, error) {
	start := time.Now()
	res, err := runChild(o)
	if err != nil {
		return nil, 0, err
	}
	return res, float64(res.ReadyUnixNano-start.UnixNano()) / 1e9, nil
}

// TestSmokeWorkloads plays one small round of every workload, untraced and
// traced, through every correctness check: the reference twin of each
// workload, and the byte-for-byte agreement of two repetitions of one seed.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			spec := runSpec{workload: w, sz: smokeSizes, seed: 7, seconds: 0, workdir: t.TempDir()}
			res, err := runOnce(inProcess, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", m.Name, v)
				}
			}
			if _, err := contractLine(res); err != nil {
				t.Error(err)
			}

			spec.traced = true
			spec.traceOut = spec.workdir + "/trace.json"
			res, err = runOnce(inProcess, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced repetition reports %d metrics, the catalogue has %d", len(res.Metrics), len(perLayer))
			}
			for name, v := range res.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v", name, v)
				}
			}
			for _, name := range []string{"tcg.translate_blocks", "vm.fast_minstr_per_s", "core.golden_warm_ms", "campaign.classify_us", "bench.attributed_share"} {
				if !(res.Metrics[name] > 0) {
					t.Errorf("per-layer metric %s = %v on every workload it must be positive", name, res.Metrics[name])
				}
			}
			service := w.specs != nil
			for _, name := range []string{"tainthub.poll_per_run", "tainthub.rpc_p50_us", "tainthub.wire_bytes_per_rpc", "server.shard_p50_ms", "server.wal_replay_ms", "campaign.merge_ms", "campaign.disk_bytes_per_run"} {
				if got := res.Metrics[name] > 0; got != service {
					t.Errorf("per-layer metric %s = %v; positive must be %v on this workload", name, res.Metrics[name], service)
				}
			}
			if len(res.SelfTime) == 0 {
				t.Error("no self-time table")
			}
			raw, err := os.ReadFile(spec.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ TraceEvents []json.RawMessage }
			if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Errorf("-trace-out wrote %d events, err %v", len(trace.TraceEvents), err)
			}
		})
	}
}

// An altered report must fail the check, whichever document it is in.
func TestAlteredReportFailsVerification(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			c, _, err := launchIn(inProcess, runSpec{workload: w, sz: smokeSizes, seed: 7, workdir: t.TempDir()}, childOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify(w, smokeSizes, 7, c.Round0); err != nil {
				t.Fatalf("the unaltered documents fail: %v", err)
			}
			if err := verify(w, smokeSizes, 8, c.Round0); err == nil {
				t.Error("documents of seed 7 pass as seed 8's")
			}
			for sub := range c.Round0 {
				last := len(c.Round0[sub]) - 1
				doc := c.Round0[sub][last]
				// One more benign run than the campaign counted.
				altered := strings.Replace(doc, "benign:", "benign: 1", 1)
				if altered == doc {
					t.Fatalf("document has no benign line to alter:\n%s", doc)
				}
				c.Round0[sub][last] = altered
				if err := verify(w, smokeSizes, 7, c.Round0); err == nil {
					t.Errorf("submitter %d: an altered report passes", sub)
				}
				c.Round0[sub][last] = doc
			}
		})
	}
}

// The sweep's pinned site must lie inside the golden run, or the campaign
// refuses it; and it must stay the late site the workload is named for.
func TestSweepSiteIsLate(t *testing.T) {
	g, err := ludGuest()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := goldenRun(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, op := range g.ops {
		total += golden.Counters[0].PerOp[op]
	}
	if share := float64(sweepSite) / float64(total); share < 0.85 || share > 0.95 {
		t.Errorf("sweepSite %d is %.0f%% of the %d golden executions, want about 90%%", sweepSite, share*100, total)
	}
}
