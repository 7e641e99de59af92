//go:build smoke

package chaser

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"chaser/internal/wal"
)

// smokeWait bounds every wait of the smoke scenarios for a line, a journal
// record or an exit. Each scenario takes a few seconds on two cores.
const smokeWait = 30 * time.Second

// metricWait bounds a wait for a metric. The scenarios' 2 s shard lease and
// fence TTLs expire well within it; chaserd's default 15 s lease does not.
const metricWait = 10 * time.Second

// TestSmoke drives the real binaries end to end: real processes, real
// signals, kill -9, and ports read from the banners the binaries print. It
// builds cmd/campaign, cmd/chaserd and cmd/tainthub once and runs five
// scenarios, each ending in a report compared byte for byte with an
// uninterrupted standalone run or in the state the binaries serve. It is
// behind the smoke build tag, so go test ./... does not run it:
//
//	go test -tags smoke -count=1 -run TestSmoke -timeout 5m .
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/campaign", "./cmd/chaserd", "./cmd/tainthub")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	sm := &smoke{bin: dir, baselines: map[string][]byte{}}
	start := time.Now()
	t.Run("Resume", sm.resume)
	t.Run("HubCrash", sm.hubCrash)
	t.Run("Observatory", sm.observatory)
	t.Run("ChaserdCrash", sm.chaserdCrash)
	t.Run("HAFailover", sm.haFailover)
	t.Logf("scenarios took %s", time.Since(start).Round(time.Millisecond))
}

// smoke holds the built binaries and the standalone reports already made.
type smoke struct {
	bin       string
	baselines map[string][]byte // by the campaign's -app, -runs, -seed
}

// baseline is the report of an uninterrupted standalone campaign, made once
// per (app, runs, seed).
func (sm *smoke) baseline(t *testing.T, app string, runs, seed int) []byte {
	key := fmt.Sprintf("%s/%d/%d", app, runs, seed)
	if b, ok := sm.baselines[key]; ok {
		return b
	}
	b := sm.output(t, "campaign", runArgs(app, runs, seed)...)
	sm.baselines[key] = b
	return b
}

// runArgs are the arguments of a standalone campaign run.
func runArgs(app string, runs, seed int) []string {
	return []string{"-experiment", "run", "-app", app, "-runs", strconv.Itoa(runs), "-seed", strconv.Itoa(seed), "-parallel", "2"}
}

// output runs a binary to completion and returns its stdout; a non-zero
// exit fails the test with its stderr.
func (sm *smoke) output(t *testing.T, name string, args ...string) []byte {
	t.Helper()
	p := sm.start(t, name, args...)
	if err := p.wait(smokeWait); err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, p.text())
	}
	return p.stdout()
}

// resume: a campaign interrupted by SIGINT mid-flight exits 0, and the
// resume command it prints resumes from its journal to the uninterrupted
// report. The campaign flips two bits a run, which the journal's header
// records: a resume command that left -bits out would be refused, with one
// "campaign:" prefix on the message.
func (sm *smoke) resume(t *testing.T) {
	run := append(runArgs("kmeans", 1000, 77), "-bits", "2")
	full := sm.output(t, "campaign", run...)
	journal := filepath.Join(t.TempDir(), "run.journal")
	args := append(run, "-journal", journal)
	p := sm.start(t, "campaign", args...)
	waitJournaled(t, journal)
	p.cmd.Process.Signal(os.Interrupt)
	if err := p.wait(smokeWait); err != nil {
		t.Fatalf("the interrupted campaign: %v\n%s", err, p.text())
	}
	resume := args
	if m := regexp.MustCompile(`(?m)^resume with: campaign (.+)$`).FindSubmatch(p.stdout()); m != nil {
		resume = strings.Fields(string(m[1]))
	} else {
		t.Log("the campaign completed before SIGINT: the resume replays a complete journal")
	}
	sameReport(t, full, sm.output(t, "campaign", resume...))

	other := sm.start(t, "campaign", append(runArgs("kmeans", 1000, 77), "-journal", journal)...)
	if err := other.wait(smokeWait); err == nil {
		t.Fatal("a one-bit campaign resumed a two-bit journal")
	}
	want := "campaign: journal " + journal + " was written by a different campaign ("
	if text := other.text(); !strings.Contains(text, "\n"+want) && !strings.HasPrefix(text, want) {
		t.Errorf("the refusal reads:\n%s\nwant a line that begins %q", text, want)
	}
}

// hubCrash: a -hub-policy fail campaign rides out a kill -9 of its durable
// hub and the hub's restart from its log, and reports what it reports
// without a hub; SIGTERM then leaves the log as the hub's only file.
func (sm *smoke) hubCrash(t *testing.T) {
	// matvec's tainted results cross ranks over MPI, so its runs use the
	// hub (kmeans keeps taint rank-local).
	full := sm.baseline(t, "matvec", 1000, 77)
	hubDir := filepath.Join(t.TempDir(), "hub")
	if err := os.Mkdir(hubDir, 0o755); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(hubDir, "hub.wal")
	// Compaction only at shutdown: the kill -9 preempts it, so the restart
	// rebuilds its state from the appended records.
	hub := sm.start(t, "tainthub", "-addr", "127.0.0.1:0", "-wal", log, "-snapshot-interval", "0", "-metrics-addr", "127.0.0.1:0")
	addr := hub.waitLine(t, `^tainthub listening on (\S+)$`)[1]
	metrics := hub.waitLine(t, `^tainthub metrics on (http://[^/]+)/metrics$`)[1]
	camp := sm.start(t, "campaign", append(runArgs("matvec", 1000, 77), "-hub", addr, "-hub-policy", "fail")...)
	// A run can finish without taint crossing ranks: wait for the hub's
	// log itself to hold a record.
	waitMetric(t, metrics, "tainthub_wal_records_total", 1)
	hub.kill(t)

	hub = sm.start(t, "tainthub", "-addr", addr, "-wal", log, "-snapshot-interval", "2s")
	if n, _ := strconv.Atoi(hub.waitLine(t, `^tainthub: recovered (\d+) records`)[1]); n == 0 {
		t.Error("the restarted hub recovered 0 records: the log was empty at the crash")
	}
	if err := camp.wait(smokeWait); err != nil {
		t.Fatalf("the campaign did not survive the hub crash: %v\n%s", err, camp.text())
	}
	sameReport(t, full, camp.stdout())

	hub.cmd.Process.Signal(syscall.SIGTERM)
	if err := hub.wait(smokeWait); err != nil {
		t.Fatalf("the hub on SIGTERM: %v\n%s", err, hub.text())
	}
	ents, err := os.ReadDir(hubDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "hub.wal" {
		t.Errorf("after shutdown the hub's directory holds %v, want hub.wal alone", ents)
	}
}

// observatory: a campaign's live dashboard serves its progress, metrics,
// retained runs' provenance and events over HTTP.
func (sm *smoke) observatory(t *testing.T) {
	p := sm.start(t, "campaign", "-experiment", "run", "-app", "matvec", "-runs", "20", "-seed", "7", "-parallel", "2",
		"-metrics-addr", "127.0.0.1:0", "-hold", "60s")
	base := p.waitLine(t, `observatory on (http://[^/]+)/`)[1]

	var progress struct {
		Done     int             `json:"done"`
		Finished bool            `json:"finished"`
		Heatmap  json.RawMessage `json:"heatmap"`
	}
	poll(t, "the campaign's finish on /progress", smokeWait, func() bool {
		getJSON(t, base+"/progress", &progress)
		return progress.Finished
	})
	if progress.Done != 20 {
		t.Errorf("/progress: done = %d, want 20", progress.Done)
	}
	if len(progress.Heatmap) == 0 || string(progress.Heatmap) == "null" {
		t.Error("/progress has no heatmap")
	}
	if _, ok := metric(base, "campaign_runs_completed_total"); !ok {
		t.Error("/metrics has no campaign_runs_completed_total")
	}

	var runs struct {
		Runs []struct {
			ID int `json:"id"`
		} `json:"runs"`
	}
	getJSON(t, base+"/runs", &runs)
	if len(runs.Runs) == 0 {
		t.Fatal("/runs retains no run")
	}
	prov := fmt.Sprintf("%s/runs/%d/provenance", base, runs.Runs[0].ID)
	var graph map[string]json.RawMessage
	getJSON(t, prov+".json", &graph)
	if _, ok := graph["nodes"]; !ok {
		t.Error("provenance.json has no nodes")
	}
	if dot := get(t, prov+".dot"); !strings.HasPrefix(dot, "digraph") {
		t.Errorf("provenance.dot does not start with digraph: %.40q", dot)
	}

	var events struct {
		Events []struct {
			Type string `json:"type"`
		} `json:"events"`
	}
	getJSON(t, base+"/events?since=0", &events)
	for _, e := range events.Events {
		if e.Type == "run_done" {
			return
		}
	}
	t.Error("/events?since=0 holds no run_done")
}

// chaserdCrash: a worker killed mid-shard loses its lease to a requeue, and
// chaserd killed mid-campaign restarts from its store on the same address;
// the watched report is the standalone one.
func (sm *smoke) chaserdCrash(t *testing.T) {
	full := sm.baseline(t, "kmeans", 6000, 4242)
	store := filepath.Join(t.TempDir(), "state")
	// A short lease, so the killed worker's shard requeues within seconds.
	srv := sm.start(t, "chaserd", "-addr", "127.0.0.1:0", "-store", store, "-lease-ttl", "2s")
	addr := srv.waitLine(t, `^chaserd listening on (\S+)$`)[1]
	w1 := sm.worker(t, "w1", "http://"+addr)
	sm.worker(t, "w2", "http://"+addr)
	id := sm.submit(t, addr)

	w1.waitLine(t, `w1: claimed`)
	w1.kill(t)
	// Metrics are in-memory: the first chaserd must show the expiry.
	waitMetric(t, "http://"+addr, "server_lease_expired_total", 1)
	waitMetric(t, "http://"+addr, "server_shards_requeued_total", 1)
	srv.kill(t)

	srv = sm.start(t, "chaserd", "-addr", addr, "-store", store, "-lease-ttl", "2s")
	srv.waitLine(t, `^chaserd listening on `)
	sm.worker(t, "w3", "http://"+addr)
	sameReport(t, full, sm.output(t, "campaign", "-experiment", "watch", "-chaserd", addr, "-campaign", id))
}

// haFailover: a leader and a follower on one store and one fence file; the
// leader is killed mid-shard and its log's tail torn the way a kill
// mid-append tears it. The follower promotes, and the report watched
// through both peers is the standalone one.
func (sm *smoke) haFailover(t *testing.T) {
	full := sm.baseline(t, "kmeans", 6000, 4242)
	dir := t.TempDir()
	store := filepath.Join(dir, "shared")
	node := func(role string) (*child, string) {
		p := sm.start(t, "chaserd", "-addr", "127.0.0.1:0", "-store", store, "-fence-file", filepath.Join(dir, "fence"),
			"-role", role, "-leader-ttl", "2s", "-lease-ttl", "2s")
		return p, p.waitLine(t, `^chaserd listening on (\S+)$`)[1]
	}
	a, addrA := node("leader")
	a.waitLine(t, `leading at epoch`)
	_, addrB := node("follower")
	w1 := sm.worker(t, "w1", "http://"+addrA+",http://"+addrB)
	sm.worker(t, "w2", "http://"+addrA+",http://"+addrB)
	peers := addrA + "," + addrB
	id := sm.submit(t, peers)

	// No drain and no fence release: the follower waits out the fence TTL
	// as after a power cut, and its open drops the torn frame (a header
	// claiming 64 payload bytes, 8 of which follow) and keeps every record
	// before it.
	w1.waitLine(t, `claimed campaign`)
	a.kill(t)
	f, err := os.OpenFile(filepath.Join(store, "wal", "control.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\x40\x00\x00\x00\x00\x00\x00\x00{\"t\":\"do"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, "http://"+addrB, "server_failovers_total", 1)
	sameReport(t, full, sm.output(t, "campaign", "-experiment", "watch", "-chaserd", peers, "-campaign", id))
}

// worker starts a chaserd worker process connected to the given peers.
func (sm *smoke) worker(t *testing.T, name, connect string) *child {
	return sm.start(t, "chaserd", "-worker", "-connect", connect, "-name", name, "-poll", "100ms")
}

// submit submits the 6,000-run kmeans campaign in six shards of 1,000 runs:
// a shard lasts about a second, so a kill after its claim lands mid-shard.
func (sm *smoke) submit(t *testing.T, peers string) string {
	out := sm.output(t, "campaign", "-experiment", "submit", "-chaserd", peers, "-app", "kmeans", "-runs", "6000", "-seed", "4242", "-shards", "6")
	return strings.TrimSpace(string(out))
}

// sameReport fails the test unless the two reports are byte-equal.
func sameReport(t *testing.T, want, got []byte) {
	t.Helper()
	if !bytes.Equal(want, got) {
		t.Errorf("the report differs from the uninterrupted standalone run:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// waitJournaled waits until the campaign journal at path holds its header
// and at least one run's record.
func waitJournaled(t *testing.T, path string) {
	t.Helper()
	poll(t, "a journaled run in "+path, smokeWait, func() bool {
		frames := 0
		wal.Replay(path, 1<<24, func([]byte) error { frames++; return nil }) // 1<<24: the journal's record bound
		return frames >= 2
	})
}

// poll checks cond every 10 ms until it holds, for at most d.
func poll(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", d, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// get returns the body of a 200 answer to a GET of url.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s %v\n%s", url, resp.Status, err, body)
	}
	return string(body)
}

// getJSON decodes the JSON answer to a GET of url into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(get(t, url)), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// metric reads one sample, the line "name value", of base's /metrics. A
// server that does not answer reads as no sample.
func metric(base, name string) (float64, bool) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok && k == name {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// waitMetric waits until base's metric name reads at least min.
func waitMetric(t *testing.T, base, name string, min float64) {
	t.Helper()
	var v float64
	poll(t, fmt.Sprintf("%s >= %g on %s", name, min, base), metricWait, func() bool {
		v, _ = metric(base, name)
		return v >= min
	})
	t.Logf("%s: %s = %g", base, name, v)
}

// child is a running binary whose stdout and stderr lines go through one
// watcher. A test's cleanup kills and reaps every child it started.
type child struct {
	name string
	cmd  *exec.Cmd

	mu      sync.Mutex
	out     bytes.Buffer  // stdout, byte for byte
	lines   []string      // stdout and stderr lines, in arrival order
	changed chan struct{} // closed and replaced at each line and at exit
	exited  bool
	err     error // the exit, once exited
}

// start starts the binary name with args.
func (sm *smoke) start(t *testing.T, name string, args ...string) *child {
	t.Helper()
	c := &child{name: name, cmd: exec.Command(filepath.Join(sm.bin, name), args...), changed: make(chan struct{})}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go c.read(stdout, true, &readers)
	go c.read(stderr, false, &readers)
	go func() {
		readers.Wait()
		err := c.cmd.Wait()
		c.mu.Lock()
		c.exited, c.err = true, err
		close(c.changed)
		c.mu.Unlock()
	}()
	t.Cleanup(func() {
		c.cmd.Process.Kill()
		c.wait(smokeWait)
	})
	return c
}

// read feeds one stream to the watcher until it ends.
func (c *child) read(r io.Reader, stdout bool, done *sync.WaitGroup) {
	defer done.Done()
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		if line != "" {
			c.mu.Lock()
			if stdout {
				c.out.WriteString(line)
			}
			c.lines = append(c.lines, strings.TrimSuffix(line, "\n"))
			close(c.changed)
			c.changed = make(chan struct{})
			c.mu.Unlock()
		}
		if err != nil {
			return
		}
	}
}

// waitLine returns the submatches of the first line matching expr, waiting
// for it for at most smokeWait; the child exiting first fails the test.
func (c *child) waitLine(t *testing.T, expr string) []string {
	t.Helper()
	re := regexp.MustCompile(expr)
	deadline := time.After(smokeWait)
	for seen := 0; ; {
		c.mu.Lock()
		for ; seen < len(c.lines); seen++ {
			if m := re.FindStringSubmatch(c.lines[seen]); m != nil {
				c.mu.Unlock()
				return m
			}
		}
		changed, exited := c.changed, c.exited
		c.mu.Unlock()
		if exited {
			t.Fatalf("%s exited (%v) before printing %q:\n%s", c.name, c.err, expr, c.text())
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("%s printed no %q within %s:\n%s", c.name, expr, smokeWait, c.text())
		}
	}
}

// wait waits at most d for the child to exit and returns its exit error.
func (c *child) wait(d time.Duration) error {
	deadline := time.After(d)
	for {
		c.mu.Lock()
		changed, exited, err := c.changed, c.exited, c.err
		c.mu.Unlock()
		if exited {
			return err
		}
		select {
		case <-changed:
		case <-deadline:
			return fmt.Errorf("%s still running after %s", c.name, d)
		}
	}
}

// kill kills the child with SIGKILL and reaps it.
func (c *child) kill(t *testing.T) {
	t.Helper()
	c.cmd.Process.Kill()
	if err := c.wait(smokeWait); err == nil {
		t.Fatalf("%s exited 0 before its kill -9", c.name)
	}
}

// stdout is what the child wrote to stdout so far.
func (c *child) stdout() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.out.Bytes())
}

// text is the child's output lines so far, for failure messages.
func (c *child) text() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.lines, "\n")
}
