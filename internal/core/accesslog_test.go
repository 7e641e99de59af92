package core

import (
	"fmt"
	"sync"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/trace"
	"chaser/internal/vm"
)

// TestAccessLogTalliesMatchCounters pins where a rank's access log publishes
// its tallies: at every chunk boundary, stored or past the rank's share, and
// whenever the rank's machine stops running. Each guest runs traced, from
// scratch and forked, with the default cap and with one its ranks run past,
// calling world.Run directly as TestLiveReadersOfATracedWorld does. A callback
// behind the log's own sees every tainted access as the log does and checks,
// each time:
//   - the running rank's published tallies are no more than a chunk behind
//     its accesses (a missed chunk boundary lets them fall further);
//   - every other rank's are exact (they stepped aside or ended: a missed
//     stop leaves a rank behind).
//
// After the world ends, each rank's tallies equal its machine's counters, and
// what the log stored and dropped adds up to them. A concurrent reader's
// totals never fall and never exceed the final ones.
func TestAccessLogTalliesMatchCounters(t *testing.T) {
	const chunk = 256 // trace's chunk size: how far a running rank may lag
	for _, tc := range []struct {
		app  string
		n    uint64 // the one-bit fault's site on rank 0
		seed int64
		fork uint64 // the fork site of the forked run
	}{
		// Faults whose taint reaches every rank, each of them for several
		// chunks' worth of accesses.
		{"clamr_mpi", 1000, 5, 500},
		{"matvec", 796, 5, 400},
		{"lud", 14000, 7, 7000},
	} {
		app, err := apps.ByName(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		cfg := RunConfig{
			Prog: app.Prog, WorldSize: app.WorldSize,
			Spec: &Spec{
				Target: app.Name, Ops: app.DefaultOps, TargetRank: 0,
				Cond: Deterministic{N: tc.n}, Bits: 1, Seed: tc.seed, Trace: true,
			},
		}
		ws, err := PrefixRun(cfg, ForkSite{Rank: 0, N: tc.fork})
		if err != nil {
			t.Fatal(err)
		}
		for _, from := range []*WorldSnapshot{nil, ws} {
			for _, maxEvents := range []int{trace.DefaultMaxEvents, 1024 * app.WorldSize} {
				name := fmt.Sprintf("%s/forked=%v/cap=%d", tc.app, from != nil, maxEvents)
				t.Run(name, func(t *testing.T) { checkAccessLogTallies(t, cfg, from, maxEvents, chunk) })
			}
		}
	}
}

func checkAccessLogTallies(t *testing.T, cfg RunConfig, from *WorldSnapshot, maxEvents int, chunk uint64) {
	s := arenas.New().(*session)
	ch := s.open(cfg, cfg.WorldSize)
	ch.collector = trace.NewCollectorCap(maxEvents)
	spec := *cfg.Spec
	if from != nil {
		spec.resume = from.resume
	}
	ch.Arm(&spec)
	log := ch.Trace()
	published := func(rank int) uint64 { return log.Reads(rank) + log.Writes(rank) }

	// seen[r] counts rank r's tainted accesses as its machine makes them.
	seen := make([]uint64, cfg.WorldSize)
	failed := false
	check := func(ev *vm.MemTaintEvent) {
		seen[ev.Rank]++
		if failed {
			return
		}
		if p := published(ev.Rank); p > seen[ev.Rank] || seen[ev.Rank]-p > chunk {
			t.Errorf("running rank %d published %d of its %d accesses", ev.Rank, p, seen[ev.Rank])
			failed = true
		}
		for r := range seen {
			if p := published(r); r != ev.Rank && p != seen[r] {
				t.Errorf("rank %d stopped with %d accesses and published %d (rank %d running)", r, seen[r], p, ev.Rank)
				failed = true
			}
		}
	}
	world, err := s.newWorld(cfg, cfg.WorldSize, from)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < world.Size(); r++ {
		h := &world.Machine(r).Hooks
		read, write := h.TaintedMemRead, h.TaintedMemWrite
		h.TaintedMemRead = func(ev *vm.MemTaintEvent) { read(ev); check(ev) }
		h.TaintedMemWrite = func(ev *vm.MemTaintEvent) { write(ev); check(ev) }
	}

	stop, reading := make(chan struct{}), make(chan struct{})
	var readers sync.WaitGroup
	var high uint64
	readers.Add(1)
	go func() {
		defer readers.Done()
		close(reading)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := log.TotalReads() + log.TotalWrites()
			if n < high {
				t.Errorf("a reader's total fell from %d to %d", high, n)
				return
			}
			high = n
		}
	}()
	<-reading
	world.Run()
	close(stop)
	readers.Wait()

	var total uint64
	busy := 0 // ranks with more than a chunk of accesses
	for r := 0; r < cfg.WorldSize; r++ {
		c := world.Machine(r).Counters()
		if log.Reads(r) != c.TaintedMemReads || log.Writes(r) != c.TaintedMemWrites || seen[r] != c.TaintedMemReads+c.TaintedMemWrites {
			t.Errorf("rank %d: the log tallies %d reads and %d writes, the machine counted %d and %d",
				r, log.Reads(r), log.Writes(r), c.TaintedMemReads, c.TaintedMemWrites)
		}
		if seen[r] > chunk {
			busy++
		}
		total += c.TaintedMemReads + c.TaintedMemWrites
	}
	if busy < min(2, cfg.WorldSize) {
		t.Errorf("%d ranks made more than a chunk of tainted accesses (%v); the check needs two, or the one of a serial guest", busy, seen)
	}
	if got := uint64(log.Stored()) + log.Dropped(); got != total {
		t.Errorf("stored %d + dropped %d = %d, want the %d accesses counted", log.Stored(), log.Dropped(), got, total)
	}
	if high > total {
		t.Errorf("a reader saw %d accesses, more than the %d of the whole run", high, total)
	}
	if (log.Dropped() > 0) != (maxEvents < trace.DefaultMaxEvents) {
		t.Errorf("a cap of %d dropped %d accesses", maxEvents, log.Dropped())
	}
	t.Logf("%d tainted accesses, %d stored, %d dropped", total, log.Stored(), log.Dropped())
}
