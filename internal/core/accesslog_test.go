package core

import (
	"fmt"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/trace"
	"chaser/internal/vm"
)

// TestAccessLogTalliesMatchCounters holds a rank's access-log tallies to its
// machine's counters. Each guest runs traced, from scratch and forked, with
// the default cap and with one its ranks run past, calling world.Run
// directly. A callback behind the log's own counts every tainted access as
// the log sees it. After the world ends, each rank's tallies equal its
// machine's counters and the callback's count, and what the log stored and
// dropped adds up to them: a tally the log's fast path, its chunk boundary or
// its cap misses shows here.
func TestAccessLogTalliesMatchCounters(t *testing.T) {
	const chunk = 256 // trace's chunk size: the busy-rank guard's unit
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

	// seen[r] counts rank r's tainted accesses as its machine makes them.
	seen := make([]uint64, cfg.WorldSize)
	world, err := s.newWorld(cfg, cfg.WorldSize, from)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < world.Size(); r++ {
		h := &world.Machine(r).Hooks
		read, write := h.TaintedMemRead, h.TaintedMemWrite
		h.TaintedMemRead = func(ev *vm.MemTaintEvent) { read(ev); seen[ev.Rank]++ }
		h.TaintedMemWrite = func(ev *vm.MemTaintEvent) { write(ev); seen[ev.Rank]++ }
	}
	world.Run()

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
	if (log.Dropped() > 0) != (maxEvents < trace.DefaultMaxEvents) {
		t.Errorf("a cap of %d dropped %d accesses", maxEvents, log.Dropped())
	}
	t.Logf("%d tainted accesses, %d stored, %d dropped", total, log.Stored(), log.Dropped())
}
