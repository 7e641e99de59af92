package core

import (
	"io"
	"sync"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/trace"
)

// TestLiveReadersOfATracedWorld runs a traced four-rank guest while another
// goroutine does what an operator and the Observatory do to a live run: the
// Chaser's spec, records, hub count and hub error, the log's count and region
// accessors, a copy of the log, its serialization and a provenance graph. Each rank appends to its
// own log without the others' lock; under -race this is the proof that
// readers still see a consistent prefix. The finished log must be the one an
// unobserved run produces.
func TestLiveReadersOfATracedWorld(t *testing.T) {
	app, err := apps.ByName("clamr_mpi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{
		Prog: app.Prog, WorldSize: app.WorldSize,
		Spec: &Spec{
			Target: app.Name, Ops: app.DefaultOps, TargetRank: 0,
			Cond: Deterministic{N: 1000}, Bits: 1, Seed: 5, Trace: true,
		},
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	s := arenas.New().(*session)
	ch := s.open(cfg, cfg.WorldSize)
	ch.Arm(cfg.Spec)
	world, err := s.newWorld(cfg, cfg.WorldSize, nil)
	if err != nil {
		t.Fatal(err)
	}

	stop, reading := make(chan struct{}), make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		log := ch.Trace()
		var faults int
		var published uint64
		close(reading)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if spec := ch.Spec(); spec == nil || spec.Target != app.Name {
				t.Errorf("a live reader found the spec %+v armed", spec)
				return
			}
			n, hs := len(ch.Records()), ch.HubStats()
			if n < faults || hs.Published < published || hs.Hits > hs.Published {
				t.Errorf("%d records and hub count %+v after %d records and %d publishes", n, hs, faults, published)
				return
			}
			faults, published = n, hs.Published
			if err := ch.HubErr(); err != nil {
				t.Errorf("hub error %v", err)
				return
			}
			stored := log.Stored()
			if evs := log.Events(); len(evs) < stored {
				t.Errorf("Events returned %d after Stored said %d", len(evs), stored)
			}
			if log.TotalReads()+log.TotalWrites() < uint64(stored) {
				t.Errorf("fewer accesses counted than stored (%d)", stored)
			}
			log.Regions()
			log.Dropped()
			if _, err := log.WriteTo(io.Discard); err != nil {
				t.Error(err)
			}
			trace.BuildGraph(log, Sites(ch.Records()))
		}
	}()
	<-reading
	world.Run()
	close(stop)
	readers.Wait()

	got := ch.Trace()
	if got.TotalReads() != want.Trace.TotalReads() || got.TotalWrites() != want.Trace.TotalWrites() ||
		got.Stored() != want.Trace.Stored() || got.Dropped() != 0 {
		t.Errorf("observed run logged %d reads, %d writes, %d stored; unobserved %d, %d, %d",
			got.TotalReads(), got.TotalWrites(), got.Stored(),
			want.Trace.TotalReads(), want.Trace.TotalWrites(), want.Trace.Stored())
	}
	for rank := 0; rank < cfg.WorldSize; rank++ {
		if got.Reads(rank) != want.Trace.Reads(rank) || got.Writes(rank) != want.Trace.Writes(rank) {
			t.Errorf("rank %d: %d reads, %d writes; unobserved %d, %d", rank,
				got.Reads(rank), got.Writes(rank), want.Trace.Reads(rank), want.Trace.Writes(rank))
		}
	}
}
