package campaign

import (
	"sync/atomic"
	"time"

	"chaser/internal/obs"
)

// ProgressInfo is a snapshot of a running campaign, delivered to
// Config.Progress at every reporting interval and once more when the
// campaign finishes.
type ProgressInfo struct {
	Done    int
	Total   int
	Elapsed time.Duration
	// RunsPerSec is the campaign-wide completion rate so far.
	RunsPerSec float64

	Benign     int
	SDC        int
	Detected   int
	Terminated int
}

// tally is the campaign's shared live state: workers increment it as runs
// classify, the progress reporter and the metrics flush read it.
type tally struct {
	done       atomic.Int64
	benign     atomic.Int64
	sdc        atomic.Int64
	detected   atomic.Int64
	terminated atomic.Int64
}

func (t *tally) record(o Outcome) {
	t.done.Add(1)
	switch o {
	case OutcomeBenign:
		t.benign.Add(1)
	case OutcomeSDC:
		t.sdc.Add(1)
	case OutcomeDetected:
		t.detected.Add(1)
	case OutcomeTerminated:
		t.terminated.Add(1)
	}
}

func (t *tally) snapshot(total int, elapsed time.Duration) ProgressInfo {
	done := int(t.done.Load())
	rps := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rps = float64(done) / s
	}
	return ProgressInfo{
		Done:       done,
		Total:      total,
		Elapsed:    elapsed,
		RunsPerSec: rps,
		Benign:     int(t.benign.Load()),
		SDC:        int(t.sdc.Load()),
		Detected:   int(t.detected.Load()),
		Terminated: int(t.terminated.Load()),
	}
}

// flushObs publishes the campaign's final tallies into the registry; the
// pool publishes the throughput (runsPerSecond).
func (t *tally) flushObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("campaign_runs_completed_total").Add(uint64(t.done.Load()))
	reg.Counter("campaign_runs_benign_total").Add(uint64(t.benign.Load()))
	reg.Counter("campaign_runs_sdc_total").Add(uint64(t.sdc.Load()))
	reg.Counter("campaign_runs_detected_total").Add(uint64(t.detected.Load()))
	reg.Counter("campaign_runs_terminated_total").Add(uint64(t.terminated.Load()))
}

// tick calls f every interval (0: a second) on a goroutine of its own until
// the returned stop is called; stop waits for the goroutine to return.
func tick(interval time.Duration, f func()) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	ticker, done, stopped := time.NewTicker(interval), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				f()
			}
		}
	}()
	return func() {
		ticker.Stop()
		close(done)
		<-stopped
	}
}
