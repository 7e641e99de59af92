package campaign

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chaser/internal/apps"
	"chaser/internal/core"
	"chaser/internal/lang"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
)

// emptyResidents empties the process's resident Baselines, so a test that
// counts golden runs, prefix runs or spine rungs starts from none, whatever
// ran before it in the process.
func emptyResidents() {
	residents.mu.Lock()
	defer residents.mu.Unlock()
	clear(residents.entries)
}

// residentFor returns cfg's entry, nil when the registry holds none.
func residentFor(cfg Config) *resident {
	residents.mu.Lock()
	defer residents.mu.Unlock()
	return residents.entries[keyOf(cfg)]
}

// install makes base cfg's resident Baseline, as if a campaign had prepared
// it.
func install(cfg Config, base *Baseline) *resident {
	e := &resident{key: keyOf(cfg), ready: make(chan struct{}), base: base}
	close(e.ready)
	residents.mu.Lock()
	defer residents.mu.Unlock()
	residents.entries[e.key] = e
	return e
}

// freshRun is cfg's campaign on a Baseline prepared for it alone: the
// reference a campaign on a resident Baseline is held to.
func freshRun(t *testing.T, cfg Config) *Summary {
	t.Helper()
	cfg.Obs = nil
	base, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := base.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// freshSweep is BitSweep's entries, each a campaign on a Baseline of its own.
func freshSweep(t *testing.T, cfg Config, bitCounts []int) []*Summary {
	t.Helper()
	var out []*Summary
	for _, bits := range bitCounts {
		c := cfg
		c.Bits, c.Name = bits, fmt.Sprintf("%s/bits=%d", cfg.Name, bits)
		out = append(out, freshRun(t, c))
	}
	return out
}

// TestResidentBaselineMatchesFresh: a sequence of campaigns and sweeps on
// every bundled guest, one after the other on the guest's resident Baseline —
// traced and untraced, random and pinned sites, a drawn target rank, serial
// journals — each equal to the same campaign on a fresh Prepare: report,
// summary and outcomes, and the journal byte for byte. Only the first of a
// guest executes a golden run; the later ones fork from the spine the earlier
// ones left.
func TestResidentBaselineMatchesFresh(t *testing.T) {
	emptyResidents()
	for _, name := range apps.Names() {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := appConfig(t, name)
			cfg.Obs = reg
			base, err := Prepare(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pinned := base.totals[cfg.TargetRank] * 5 / 8
			dir := t.TempDir()
			type step struct {
				what  string
				edit  func(*Config)
				sweep []int
			}
			steps := []step{
				{what: "random traced", edit: func(c *Config) { c.Seed = 3 }},
				{what: "pinned untraced", edit: func(c *Config) { c.Seed, c.Trace, c.InjectExec = 17, false, pinned }},
				{what: "random sweep", edit: func(c *Config) { c.Seed = 17 }, sweep: []int{1, 2}},
				{what: "serial journal", edit: func(c *Config) { c.Seed, c.Parallel, c.Runs = 3, 1, 20 }},
				{what: "pinned traced sweep", edit: func(c *Config) { c.Seed, c.InjectExec = 3, pinned }, sweep: []int{1, 4}},
				{what: "random untraced, drawn rank", edit: func(c *Config) { c.Seed, c.Trace, c.TargetRank = 17, false, -1 }},
			}
			for i, st := range steps {
				c := cfg
				st.edit(&c)
				if st.sweep != nil {
					got, err := BitSweep(c, st.sweep)
					if err != nil {
						t.Fatalf("%s: %v", st.what, err)
					}
					for j, want := range freshSweep(t, c, st.sweep) {
						sameCampaign(t, want, got[j].Summary)
					}
					continue
				}
				c.Journal = filepath.Join(dir, fmt.Sprintf("resident-%d.journal", i))
				got, err := Run(c)
				if err != nil {
					t.Fatalf("%s: %v", st.what, err)
				}
				fc := c
				fc.Journal = filepath.Join(dir, fmt.Sprintf("fresh-%d.journal", i))
				sameCampaign(t, freshRun(t, fc), got)
				if c.Parallel == 1 {
					sameFile(t, fc.Journal, c.Journal)
				} else {
					sameJournalRecords(t, fc.Journal, c.Journal)
				}
			}
			// Prepare above counted one golden run of its own.
			if g, h := reg.Counter("campaign_golden_runs_total").Value(), reg.Counter("campaign_baseline_hits_total").Value(); g != 2 || h != uint64(len(steps)-1) {
				t.Errorf("%d golden runs (one Prepare's) and %d baseline hits over %d campaigns, want 2 and %d", g, h, len(steps), len(steps)-1)
			}
		})
	}
}

// TestResidentBaselineColdKeyRace: campaigns raced onto a key the registry
// does not hold prepare one Baseline — one golden run, the others waiting for
// it — and build its spine once: together they perform exactly the prefix
// runs the same campaigns perform one after the other, and each reports what
// it reports alone.
func TestResidentBaselineColdKeyRace(t *testing.T) {
	const racers = 6
	cfgs := make([]Config, racers)
	for i := range cfgs {
		cfgs[i] = appConfig(t, "matvec")
		cfgs[i].Seed, cfgs[i].Parallel = int64(500+i), 1
	}
	play := func(concurrent bool) (*obs.Registry, []*Summary) {
		emptyResidents()
		reg := obs.NewRegistry()
		sums := make([]*Summary, racers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i, c := range cfgs {
			c.Obs = reg
			run := func() {
				defer wg.Done()
				<-start
				sum, err := Run(c)
				if err != nil {
					t.Error(err)
				}
				sums[i] = sum
			}
			wg.Add(1)
			if concurrent {
				go run()
			} else {
				close(start)
				run()
				start = make(chan struct{})
			}
		}
		close(start)
		wg.Wait()
		return reg, sums
	}
	serial, alone := play(false)
	raced, sums := play(true)
	if t.Failed() {
		return
	}
	count := func(reg *obs.Registry, name string) uint64 { return reg.Counter(name).Value() }
	if g, h := count(raced, "campaign_golden_runs_total"), count(raced, "campaign_baseline_hits_total"); g != 1 || h != racers-1 {
		t.Errorf("%d campaigns raced onto a cold key: %d golden runs, %d hits; want 1 and %d", racers, g, h, racers-1)
	}
	if p, want := count(raced, "campaign_prefix_runs_total"), count(serial, "campaign_prefix_runs_total"); p != want || p == 0 {
		t.Errorf("raced campaigns ran %d prefix runs, the same ones in turn %d: a spine position was built twice", p, want)
	}
	for i := range sums {
		sameCampaign(t, alone[i], sums[i])
	}
}

// retirePanics is a hub whose Retire panics: a panic on the campaign's own
// goroutine, after every run completed.
type retirePanics struct{ tainthub.Hub }

func (retirePanics) Retire(int, int) error { panic("retire") }

// TestResidentBaselineDroppedOnFailure: a campaign that returns an error —
// a window outside its runs, an interruption, a prefix run that fails — or
// panics takes the Baseline it ran on out of the registry, and the next
// campaign of the key prepares a fresh one; a late failure on a Baseline the
// registry no longer holds drops nothing. The spine gauges read what the
// resident Baselines hold after each.
func TestResidentBaselineDroppedOnFailure(t *testing.T) {
	emptyResidents()
	reg := obs.NewRegistry()
	cfg := appConfig(t, "kmeans")
	cfg.Obs, cfg.Runs, cfg.Parallel = reg, 8, 1
	goldens := func() uint64 { return reg.Counter("campaign_golden_runs_total").Value() }
	gauges := func(what string) {
		t.Helper()
		var rungs, bytes int
		residents.mu.Lock()
		for _, e := range residents.entries {
			r, b := e.base.SpineSize()
			rungs, bytes = rungs+r, bytes+int(b)
		}
		residents.mu.Unlock()
		if r, b := reg.Gauge("campaign_spine_rungs").Value(), reg.Gauge("campaign_spine_bytes").Value(); r != float64(rungs) || b != float64(bytes) {
			t.Errorf("%s: the spine gauges read %v rungs, %v bytes; the resident Baselines hold %d and %d", what, r, b, rungs, bytes)
		}
	}
	warm := func(what string) *resident {
		t.Helper()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		e := residentFor(cfg)
		if e == nil {
			t.Fatalf("%s: no Baseline resident after a campaign", what)
		}
		if rungs, _ := e.base.SpineSize(); rungs == 0 {
			t.Fatalf("%s: the campaign left no spine", what)
		}
		gauges(what)
		return e
	}
	stop := make(chan struct{})
	close(stop)
	broken := func(c *Config) {
		base, err := Prepare(*c)
		if err != nil {
			t.Fatal(err)
		}
		base.maxInstr = 1 // a budget lowered behind Prepare's back
		install(*c, base)
	}
	// Stop closed before the campaign starts: the feed picks it or a waiting
	// worker at random, and a worker busy with a run never waits, so one of
	// 64 tasks is all it takes.
	interrupt := func(c *Config) { c.Stop, c.Runs = stop, 64 }
	interrupted := func(err error) bool { return errors.Is(err, ErrInterrupted) }
	for _, tc := range []struct {
		name  string
		edit  func(*Config)
		sweep bool
		want  func(error) bool
	}{
		{name: "window", edit: func(c *Config) { c.Shard = &ShardRange{Lo: 0, Hi: 99} },
			want: func(err error) bool { return err != nil }},
		{name: "interrupted", edit: interrupt, want: interrupted},
		{name: "interrupted sweep", edit: interrupt, sweep: true, want: interrupted},
		{name: "prefix run", edit: broken,
			want: func(err error) bool { return err != nil && strings.HasPrefix(err.Error(), "campaign: prefix run to") }},
	} {
		warm(tc.name + ": before")
		c := cfg
		tc.edit(&c)
		var err error
		if tc.sweep {
			_, err = BitSweep(c, []int{1, 2})
		} else {
			_, err = Run(c)
		}
		if !tc.want(err) {
			t.Fatalf("%s: the campaign returned %v", tc.name, err)
		}
		if residentFor(cfg) != nil {
			t.Errorf("%s: the failed campaign left its Baseline resident", tc.name)
		}
		gauges(tc.name + ": after")
		g := goldens()
		warm(tc.name + ": after")
		if goldens() != g+1 {
			t.Errorf("%s: the campaign after the failure ran %d golden runs, want a fresh one", tc.name, goldens()-g)
		}
	}

	// A panic on the campaign's goroutine goes on to the caller, and the
	// Baseline goes with it.
	old := warm("panic: before")
	func() {
		defer func() {
			if r := recover(); r != "retire" {
				t.Errorf("the campaign's panic reached the caller as %v", r)
			}
		}()
		c := cfg
		c.Hub = retirePanics{tainthub.NewLocal()}
		Run(c)
	}()
	if residentFor(cfg) != nil {
		t.Error("a panicking campaign left its Baseline resident")
	}
	fresh := warm("panic: after")
	if fresh == old {
		t.Fatal("the campaign after the panic ran on the dropped Baseline")
	}
	residents.drop(old) // a late failure on the dropped one
	if residentFor(cfg) != fresh {
		t.Error("dropping the old Baseline dropped the one that replaced it")
	}
}

// TestResidentBaselineEviction: the registry holds maxResident Baselines and
// evicts the least recently used — not the first prepared — when a program
// past them arrives; a campaign running on a Baseline evicted meanwhile
// finishes on it, with the fresh campaign's outcomes.
func TestResidentBaselineEviction(t *testing.T) {
	emptyResidents()
	reg := obs.NewRegistry()
	cfgs := make([]Config, maxResident+2)
	for i := range cfgs {
		prog, err := lang.Compile(apps.LUDProgram(4))
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = appConfig(t, "lud")
		cfgs[i].Prog, cfgs[i].Runs, cfgs[i].Obs = prog, 6, reg
	}
	run := func(c Config) {
		t.Helper()
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
	}
	// Program 0's campaign holds its first run until program 0 is evicted.
	running := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	long := cfgs[0]
	long.Parallel = 1
	long.RunObserver = func(int, int, RunOutcome, *core.RunResult) {
		once.Do(func() {
			close(running)
			<-release
		})
	}
	done := make(chan *Summary, 1)
	go func() {
		sum, err := Run(long)
		if err != nil {
			t.Error(err)
		}
		done <- sum
	}()
	select {
	case <-running:
	case <-time.After(time.Minute):
		t.Fatal("program 0's campaign never ran")
	}
	for i := 1; i < maxResident; i++ {
		run(cfgs[i])
	}
	run(cfgs[1]) // program 1 is now the most recently used
	run(cfgs[maxResident])
	run(cfgs[maxResident+1])
	resident := func(i int) bool { return residentFor(cfgs[i]) != nil }
	if resident(0) || resident(2) {
		t.Errorf("programs 0 and 2 are resident (%v, %v): the least recently used were not evicted", resident(0), resident(2))
	}
	for _, i := range []int{1, 3, maxResident, maxResident + 1} {
		if !resident(i) {
			t.Errorf("program %d was evicted", i)
		}
	}
	residents.mu.Lock()
	n := len(residents.entries)
	residents.mu.Unlock()
	if n != maxResident {
		t.Errorf("the registry holds %d Baselines, bound %d", n, maxResident)
	}
	close(release)
	sum := <-done
	if sum == nil {
		return
	}
	long.RunObserver = nil
	sameCampaign(t, freshRun(t, long), sum)
	if resident(0) {
		t.Error("the campaign on the evicted Baseline put it back")
	}
}
