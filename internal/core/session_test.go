package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"chaser/internal/decaf"
	"chaser/internal/memtest"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
	"chaser/internal/vm"
)

// sessionCase is an arenaCase in one of the shapes sessions tell apart: its
// hub is private or a tainthub.Local passed in (one per goroutine, so that
// concurrent runs never share one), and it reports to a registry or not.
type sessionCase struct {
	arenaCase
	passedHub bool
	// index is the case's place in sessionCases, and its hub's in a
	// goroutine's.
	index int
}

// on returns the case as a goroutine whose hubs these are runs it.
func (c sessionCase) on(hubs []*tainthub.Local) arenaCase {
	if c.passedHub {
		c.cfg.Hub = hubs[c.index]
	}
	return c.arenaCase
}

// sessionCases returns every arenaCase — lud, matvec, bfs and clamr_mpi,
// worlds of one and four ranks, scratch and forked, untraced, traced and
// log-less — on a private hub and on a hub passed in, without a registry and
// with one.
func sessionCases(t *testing.T) []sessionCase {
	t.Helper()
	reg := obs.NewRegistry()
	var out []sessionCase
	for _, c := range arenaCases(t) {
		for _, v := range []struct {
			label     string
			passedHub bool
			reg       *obs.Registry
		}{{"private hub", false, nil}, {"hub passed in", true, nil}, {"private hub, registry", false, reg}} {
			sc := sessionCase{arenaCase: c, passedHub: v.passedHub, index: len(out)}
			sc.label = c.label + "/" + v.label
			sc.cfg.Obs = v.reg
			out = append(out, sc)
		}
	}
	return out
}

// TestSessionRunsMatchColdRuns: a run on a session that runs of other shapes
// and of its own used before it — its platform and Chaser reset or rebuilt,
// its world shell reset, its machines recycled — is the run it is on a fresh
// session: terminations, outputs, consoles, counters, injection records, hub
// statistics and the propagation log byte for byte. The runs interleave every
// shape (traced, untraced and log-less; a private hub and one passed in; a
// registry or none; one rank and four; scratch and forked; four guests), on
// one goroutine and then on four.
func TestSessionRunsMatchColdRuns(t *testing.T) {
	cases := sessionCases(t)
	newHubs := func() []*tainthub.Local {
		hubs := make([]*tainthub.Local, len(cases))
		for i := range hubs {
			hubs[i] = tainthub.NewLocal()
		}
		return hubs
	}
	cold := make([]*RunResult, len(cases))
	coldHubs := newHubs()
	for i, c := range cases {
		memtest.Drain()
		cold[i] = c.on(coldHubs).run(t)
	}
	// order interleaves the cases: each twice, shuffled.
	order := func(seed int64) []int {
		o := make([]int, 0, 2*len(cases))
		for i := range cases {
			o = append(o, i, i)
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(o), func(a, b int) { o[a], o[b] = o[b], o[a] })
		return o
	}

	hubs := newHubs()
	for _, i := range order(1) {
		sameResult(t, "one goroutine: "+cases[i].label, cold[i], cases[i].on(hubs).run(t))
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hubs := newHubs()
			for _, i := range order(int64(2 + g)) {
				c := cases[i].on(hubs)
				res, err := c.result()
				if err != nil {
					t.Errorf("%s: %v", c.label, err)
					return
				}
				sameResult(t, fmt.Sprintf("goroutine %d: %s", g, c.label), cold[i], res)
			}
		}()
	}
	wg.Wait()

	namespacesAlternate(t)
}

// namespacesAlternate: two namespaces of one hub, as a campaign's runs get
// them (tainthub.WithNamespace), alternate on one session. The session's
// platform and Chaser are reset for each run, not rebuilt; the run publishes
// into its own namespace; and it is the run a fresh session makes in that
// namespace of a fresh hub.
func namespacesAlternate(t *testing.T) {
	var cases []arenaCase
	for _, c := range arenaCases(t) {
		if c.label == "clamr_mpi/traced/scratch" || c.label == "clamr_mpi/traced/forked" {
			cases = append(cases, c)
		}
	}
	in := func(c arenaCase, hub tainthub.Hub, ns int) arenaCase {
		c.cfg.Hub = tainthub.WithNamespace(hub, ns)
		c.label = fmt.Sprintf("%s, namespace %d", c.label, ns)
		return c
	}
	hub := tainthub.NewLocal()
	s := &session{arena: new(vm.Arena)}
	var ch *Chaser
	first := true
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			for _, ns := range []int{1, 2} {
				c := in(c, hub, ns)
				l, err := s.run(c.cfg, c.ws)
				if err != nil || !l.quiet {
					t.Fatalf("%s: %v (quiet %v)", c.label, err, l.quiet)
				}
				res := l.res
				if ch == nil {
					ch = s.ch
				} else if s.ch != ch {
					t.Errorf("%s: the session built its Chaser afresh", c.label)
				}
				sends := res.Trace.Sends()
				if len(sends) == 0 {
					t.Fatalf("%s: the run published nothing", c.label)
				}
				snd := sends[0]
				holds := func(ns int) bool {
					_, found, _ := hub.Poll(tainthub.ReqID{}, tainthub.Key{Src: snd.Src, Dst: snd.Dst, Tag: snd.Tag, NS: ns}, snd.Seq)
					return found
				}
				if !holds(ns) {
					t.Errorf("%s: the run's namespace does not hold its first message", c.label)
				}
				if first && holds(2) {
					t.Errorf("%s: namespace 2 holds a message before any run in it", c.label)
				}
				first = false
				got := Loan{res: res, s: s}.Own()
				s.ch.collector = nil
				s.recycle()
				memtest.Drain()
				sameResult(t, c.label, in(c, tainthub.NewLocal(), ns).run(t), got)
			}
		}
	}
}

// TestChaserResetIsNew: a Chaser reset after a run — a traced clamr_mpi fork
// that injected, published through its private hub, sampled its timeline and
// numbered its flows — is, field by field, the Chaser New builds and a new
// platform loads, but for the hub client ID, which is minted anew, and the
// storage it keeps. So it is across a switch of the access log and the event
// sink, which are not part of the session's shape: reset for a log-less run
// with a sink, then for the first kind again. A field a later change adds
// without resetting it fails this test as soon as a run writes it.
func TestChaserResetIsNew(t *testing.T) {
	var c arenaCase
	for _, ac := range arenaCases(t) {
		if ac.label == "clamr_mpi/traced/forked" {
			c = ac
		}
	}
	c.cfg.SampleInterval = 1000
	s := arenas.New().(*session)
	l, err := s.run(c.cfg, c.ws)
	if err != nil || !l.quiet {
		t.Fatalf("run: %v (quiet %v)", err, l.quiet)
	}
	res := l.res
	if len(res.Records) == 0 || res.HubStats.Published == 0 || len(res.Trace.Timeline()) == 0 {
		t.Fatalf("the run injected %d faults, published %d messages and sampled %d points: it leaves too little to reset",
			len(res.Records), res.HubStats.Published, len(res.Trace.Timeline()))
	}
	switched := c.cfg
	switched.NoAccessLog, switched.Events = true, obs.NewSink(64)
	ch := s.ch
	for _, cfg := range []RunConfig{c.cfg, switched, c.cfg} {
		client := ch.hubClient
		if got, err := s.open(cfg, cfg.WorldSize); err != nil || got != ch {
			t.Fatalf("NoAccessLog %v, events %v: a run of the same shape did not reset the session's Chaser (%v)",
				cfg.NoAccessLog, cfg.Events != nil, err)
		}
		fresh := New(Options{Hub: cfg.Hub, Obs: cfg.Obs, Events: cfg.Events, NoAccessLog: cfg.NoAccessLog})
		if err := decaf.NewPlatform().LoadPlugin(fresh); err != nil {
			t.Fatal(err)
		}
		// The reset Chaser keeps its rank states, idle; a new one makes them
		// when its ranks are created.
		for r := range ch.armed {
			fresh.rankState(r)
		}
		if ch.hubClient == client || ch.hubClient == fresh.hubClient || ch.hubClient == 0 {
			t.Errorf("hub client ID %d after reset (%d before, %d for a new Chaser): not minted anew", ch.hubClient, client, fresh.hubClient)
		}
		fresh.hubClient = ch.hubClient
		for _, diff := range differences("Chaser", reflect.ValueOf(ch).Elem(), reflect.ValueOf(fresh).Elem(), map[[2]uintptr]bool{}) {
			t.Errorf("NoAccessLog %v, events %v: reset and new Chasers differ at %s", cfg.NoAccessLog, cfg.Events != nil, diff)
		}
	}
}

// differences lists where two values of one type differ, field by field
// through pointers, interfaces, slices and maps, unexported fields included.
// Functions are compared by whether they are nil, slices and maps by their
// elements (an empty one equals nil), pointers by what they point to.
func differences(path string, a, b reflect.Value, seen map[[2]uintptr]bool) []string {
	differ := []string{fmt.Sprintf("%s (%v and %v)", path, describe(a), describe(b))}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return differ
			}
			return nil
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if seen[key] {
			return nil
		}
		seen[key] = true
		return differences(path, a.Elem(), b.Elem(), seen)
	case reflect.Interface:
		if a.IsNil() || b.IsNil() || a.Elem().Type() != b.Elem().Type() {
			if a.IsNil() != b.IsNil() || (!a.IsNil() && a.Elem().Type() != b.Elem().Type()) {
				return differ
			}
			return nil
		}
		return differences(path, a.Elem(), b.Elem(), seen)
	case reflect.Struct:
		var out []string
		for i := 0; i < a.NumField(); i++ {
			out = append(out, differences(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i), seen)...)
		}
		return out
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return differ
		}
		var out []string
		for i := 0; i < a.Len(); i++ {
			out = append(out, differences(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), seen)...)
		}
		return out
	case reflect.Map:
		if a.Len() != b.Len() {
			return differ
		}
		var out []string
		for _, k := range a.MapKeys() {
			if !b.MapIndex(k).IsValid() {
				return differ
			}
			out = append(out, differences(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), b.MapIndex(k), seen)...)
		}
		return out
	case reflect.Func, reflect.Chan:
		if a.IsNil() != b.IsNil() {
			return differ
		}
		return nil
	case reflect.UnsafePointer:
		if a.Pointer() != b.Pointer() {
			return differ
		}
		return nil
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return differ
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return differ
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return differ
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return differ
		}
	case reflect.String:
		if a.String() != b.String() {
			return differ
		}
	default:
		return []string{path + ": cannot compare a " + a.Kind().String()}
	}
	return nil
}

// describe renders a value for a difference's message.
func describe(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Slice, reflect.Map, reflect.Array:
		return fmt.Sprintf("%d elements", v.Len())
	case reflect.Pointer, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if v.IsNil() {
			return "nil"
		}
		return "set"
	case reflect.Struct:
		return v.Type().String()
	}
	return fmt.Sprint(v)
}
