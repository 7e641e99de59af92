package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/campaign"
	"chaser/internal/obs"
	"chaser/internal/wal"
)

// scheduleWait bounds each wait of a schedule: a seed runs in about a
// second, so a wait this long means the control plane is stuck.
const scheduleWait = 30 * time.Second

// scheduleSeeds is TestControlPlaneSchedule's fixed seed list. Rerun one
// seed with -run 'TestControlPlaneSchedule/seed=N'.
var scheduleSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// schedule is one seed's faults. WAL faults and the takeover are keyed to
// the first leader's appends: 1 is the campaign's submit, then come the
// shards' done records and the campaign's complete record.
type schedule struct {
	torn  int // the leader's append whose write tears (0 = none)
	fsync int // the leader's append whose fsync fails (0 = none)
	// takeover: once the leader has made this many appends, or the
	// campaign is complete, the standby takes over (0 = never) — because
	// the leader's clock freezes at its freeze-th read from then on, or,
	// with freeze 0, because it crashes (Abort, fence not released) and
	// restarts as follower.
	takeover, freeze int
	// late: at the takeover the leader's next append stalls past its guard
	// until the successor has opened the log, and then lands.
	late bool
	// worker: a worker is stopped mid-shard and replaced.
	worker bool
}

// drawSchedule draws a seed's schedule. Only the faults depend on the
// seed; goroutine interleaving is still the wall clock's.
func drawSchedule(seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	var s schedule
	// The leader makes at least five appends before the campaign is
	// complete: the submit, three done records and the complete record.
	if rng.Intn(2) == 0 {
		s.torn = 1 + rng.Intn(5)
	}
	if k := 1 + rng.Intn(5); rng.Intn(2) == 0 && k != s.torn {
		s.fsync = k
	}
	if rng.Intn(3) > 0 {
		s.takeover = 1 + max(s.torn, s.fsync) + rng.Intn(2)
		if rng.Intn(2) == 0 {
			s.freeze = 1 + rng.Intn(3)
		}
		// A frozen leader's writes are fenced only if one is in flight:
		// the stalled append holds the scheduler, so writes queue behind it.
		s.late = s.freeze > 0 || rng.Intn(2) == 0
	}
	s.worker = rng.Intn(2) == 0
	return s
}

// events names the schedule's event classes, with their parameters.
func (s schedule) events() []string {
	var ev []string
	if s.torn > 0 {
		ev = append(ev, fmt.Sprintf("torn append %d", s.torn))
	}
	if s.fsync > 0 {
		ev = append(ev, fmt.Sprintf("failed fsync %d", s.fsync))
	}
	if s.freeze > 0 {
		ev = append(ev, fmt.Sprintf("frozen clock after append %d, read %d", s.takeover, s.freeze))
	} else if s.takeover > 0 {
		ev = append(ev, fmt.Sprintf("leader crash after append %d", s.takeover))
	}
	if s.late {
		ev = append(ev, "late append")
	}
	if s.worker {
		ev = append(ev, "worker stop")
	}
	return ev
}

// scheduleClasses are the event classes the seed list must cover.
var scheduleClasses = []string{"torn append", "failed fsync", "frozen clock", "leader crash", "late append", "worker stop"}

// firstLeader carries the first leader's seams: its store's WAL fault hook
// and its fencer's clock, both driven by the schedule.
type firstLeader struct {
	s schedule

	mu       sync.Mutex
	appends  int
	stall    bool          // the next append stalls until release is closed
	stalled  chan struct{} // closed when it does
	release  chan struct{}
	reads    int
	freezeAt int       // the read the clock freezes at (0 = none)
	frozen   time.Time // zero while the clock runs
}

func (l *firstLeader) fault(site string) bool {
	l.mu.Lock()
	if site == wal.FaultSync {
		defer l.mu.Unlock()
		return l.appends == l.s.fsync
	}
	l.appends++
	n, stall := l.appends, l.stall
	l.stall = false
	l.mu.Unlock()
	if stall {
		close(l.stalled)
		<-l.release
		return false
	}
	return n == l.s.torn
}

func (l *firstLeader) now() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reads++
	if l.reads == l.freezeAt {
		l.frozen = time.Now()
	}
	if !l.frozen.IsZero() {
		return l.frozen
	}
	return time.Now()
}

func (l *firstLeader) appendCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// TestControlPlaneSchedule drives an HA pair on one store and fence file,
// with fsync on and two in-process workers, through each seed's schedule
// of faults while it runs acceptanceSpec. Every seed must end with the
// standalone summary, a log with no torn record, and no record of a lower
// epoch after one of a higher epoch — so no record of a deposed leader
// follows its successor's first. A frozen-clock seed also checks that the
// successor counted a failover and the deposed leader fenced a write and
// demoted itself.
func TestControlPlaneSchedule(t *testing.T) {
	covered := map[string]bool{}
	for _, seed := range scheduleSeeds {
		for _, ev := range drawSchedule(seed).events() {
			for _, class := range scheduleClasses {
				if strings.HasPrefix(ev, class) {
					covered[class] = true
				}
			}
		}
	}
	for _, class := range scheduleClasses {
		if !covered[class] {
			t.Errorf("no seed draws a %s", class)
		}
	}
	app, err := apps.ByName(acceptanceSpec.App)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := campaign.Run(campaignConfig(acceptanceSpec.normalize(), app, 0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range scheduleSeeds {
		s := drawSchedule(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("schedule: %s", strings.Join(s.events(), ", "))
			runSchedule(t, s, want)
		})
	}
}

func runSchedule(t *testing.T, s schedule, want []byte) {
	base := t.TempDir()
	var nodes []*Server
	var workers []*Worker
	start := func(name, addr, role string, l *firstLeader) *Server {
		logf := func(f string, a ...any) { t.Logf("["+name+"] "+f, a...) }
		cfg := ServerConfig{
			Addr:           addr,
			StoreDir:       filepath.Join(base, "store"),
			FenceFile:      filepath.Join(base, "fence"),
			LeaderTTL:      500 * time.Millisecond,
			RolePreference: role,
			Fsync:          true,
			Obs:            obs.NewRegistry(),
			Sched: SchedConfig{
				LeaseTTL:       150 * time.Millisecond,
				ExpiryInterval: 25 * time.Millisecond,
				BackoffBase:    time.Millisecond,
				Logf:           logf,
			},
			Logf: logf,
		}
		if l != nil {
			cfg.now, cfg.fault = l.now, l.fault
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Abort)
		nodes = append(nodes, srv)
		return srv
	}
	lead := &firstLeader{s: s, stalled: make(chan struct{}), release: make(chan struct{})}
	a := start("A", "127.0.0.1:0", "leader", lead)
	waitUntil(t, 5*time.Second, "initial leader election", a.IsLeader)
	b := start("B", "127.0.0.1:0", "follower", nil)
	peers := a.Addr() + "," + b.Addr()

	worker := func(name string, runShard func(*Assignment) error) *Worker {
		w := NewWorker(WorkerConfig{Name: name, Control: NewClient(peers), PollInterval: 5 * time.Millisecond, Logf: t.Logf, RunShard: runShard})
		w.Start()
		t.Cleanup(w.Stop)
		workers = append(workers, w)
		return w
	}
	var victim *Worker
	started, kill := make(chan struct{}), make(chan struct{})
	if s.worker {
		var once sync.Once
		victim = worker("victim", func(a *Assignment) error {
			once.Do(func() { close(started) })
			return executeShard(a, kill, nil, campaign.Run)
		})
	} else {
		worker("w0", nil)
		worker("w1", nil)
	}

	cl := NewClient(peers)
	var id string
	var err error
	// A torn or unsynced submit fails; the client resubmits.
	for try := 0; try < 3; try++ {
		if id, err = cl.Submit(acceptanceSpec); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	complete := func() bool {
		st, err := cl.Status(id)
		return err == nil && st.Status == StatusComplete
	}

	if s.worker {
		select {
		case <-started:
		case <-time.After(scheduleWait):
			t.Fatal("timed out waiting for the victim's first shard")
		}
		worker("w1", nil)
		close(kill)
		victim.Stop()
		worker("replacement", nil)
	}

	var epochA uint64
	var stale staleSubmits
	if s.takeover > 0 {
		epochA = takeover(t, s, a, b, lead, complete, func() { stale.send(a.Addr()) }, func() { start("A'", a.Addr(), "follower", nil) })
	}

	waitUntil(t, scheduleWait, "campaign completion", complete)
	doc, err := cl.WaitSummary(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(doc.Summary), want) {
		t.Errorf("summary diverges from the standalone run:\n%s\n%s", doc.Summary, want)
	}
	if s.freeze > 0 {
		if got := b.Registry().Counter("server_failovers_total").Value(); got < 1 {
			t.Errorf("server_failovers_total = %d on B, want >= 1", got)
		}
		if got := a.Registry().Counter("server_fenced_appends_total").Value(); got < 1 {
			t.Errorf("server_fenced_appends_total = %d on A, want >= 1", got)
		}
		if got := a.Registry().Counter("server_demotions_total").Value(); got < 1 {
			t.Errorf("server_demotions_total = %d on A, want >= 1", got)
		}
	}
	for _, w := range workers {
		w.Stop()
	}
	for _, n := range nodes {
		n.Abort()
	}
	checkScheduleLog(t, filepath.Join(base, "store", "wal", "control.log"), epochA)

	// Replayed, the log holds exactly the one campaign, complete.
	store, recs, err := OpenStore(filepath.Join(base, "store"), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sched, err := NewScheduler(store, recs, SchedConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Stop()
	if got := sched.List(""); len(got) != 1 || got[0].ID != id || got[0].Status != StatusComplete {
		t.Errorf("the reopened store holds %+v, want campaign %s complete", got, id)
	}
	// No 201 of the first leader names a campaign the log lacks.
	stale.wg.Wait()
	for _, ans := range stale.answers {
		t.Logf("stale submit: %s", ans.status)
		if ans.id != "" && sched.Status(ans.id) == nil {
			t.Errorf("the deposed leader answered %s for %s, which the final leader lacks", ans.status, ans.id)
		}
	}
}

// staleSubmits are the submits sent to the first leader at its takeover.
type staleSubmits struct {
	wg      sync.WaitGroup
	mu      sync.Mutex
	answers []staleAnswer
}

// staleAnswer is one stale submit's outcome: the response status or the
// transport error, and the ID of a 201.
type staleAnswer struct{ status, id string }

// send posts a small campaign to addr without following redirects.
func (s *staleSubmits) send(addr string) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		noFollow := &http.Client{Timeout: scheduleWait, CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
		var ans staleAnswer
		resp, err := noFollow.Post("http://"+addr+"/api/v1/campaigns", "application/json", strings.NewReader(`{"app":"kmeans","runs":2,"seed":1}`))
		if err != nil {
			ans.status = err.Error()
		} else {
			ans.status = resp.Status
			var created struct {
				ID string `json:"id"`
			}
			if resp.StatusCode == http.StatusCreated && json.NewDecoder(resp.Body).Decode(&created) == nil {
				ans.id = created.ID
			}
			resp.Body.Close()
		}
		s.mu.Lock()
		s.answers = append(s.answers, ans)
		s.mu.Unlock()
	}()
}

// takeover hands the lead from a to b as the schedule says and returns the
// epoch a led at. A late append stalls first: the leader stalls holding
// the scheduler, so a submit sent to it (submitToA) queues behind the
// stalled append and reaches the append guard only after b has opened the
// log.
func takeover(t *testing.T, s schedule, a, b *Server, lead *firstLeader, complete func() bool, submitToA, restart func()) uint64 {
	waitUntil(t, scheduleWait, fmt.Sprintf("the leader's append %d", s.takeover), func() bool {
		return lead.appendCount() >= s.takeover || complete()
	})
	epochA := a.currentEpoch()
	if s.late {
		lead.mu.Lock()
		lead.stall = true
		lead.mu.Unlock()
		submitToA()
		select {
		case <-lead.stalled:
		case <-time.After(scheduleWait):
			t.Fatal("timed out waiting for the leader's stalled append")
		}
	}
	if s.freeze > 0 {
		lead.mu.Lock()
		lead.freezeAt = lead.reads + s.freeze
		lead.mu.Unlock()
		submitToA()
		waitUntil(t, scheduleWait, "B's promotion over the frozen leader", b.IsLeader)
		close(lead.release)
		waitUntil(t, scheduleWait, "the deposed leader's demotion", func() bool {
			return !a.IsLeader() && a.Registry().Counter("server_demotions_total").Value() > 0
		})
		lead.mu.Lock()
		lead.frozen = time.Time{}
		lead.mu.Unlock()
		return epochA
	}
	aborted := make(chan struct{})
	go func() {
		a.Abort()
		close(aborted)
	}()
	if s.late {
		waitUntil(t, scheduleWait, "B's promotion over the stalled leader", b.IsLeader)
		close(lead.release)
	}
	<-aborted
	restart()
	return epochA
}

// checkScheduleLog reads the log frame by frame: it must end cleanly, and
// epochs must never fall — so once a successor has written, no record of
// the leader it deposed (epoch epochA) follows.
func checkScheduleLog(t *testing.T, path string, epochA uint64) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var last uint64
	for n := 0; ; n++ {
		payload, err := wal.ReadFrame(br, maxWALRecord)
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if rec.Epoch < last {
			t.Errorf("record %d %+v follows a record of epoch %d (the first leader's was %d)", n, rec, last, epochA)
		}
		last = rec.Epoch
	}
}
