package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"chaser/internal/obs"
	"chaser/internal/wal"
)

// WAL shipping. The leader exposes its logical log as a stream of
// internal/wal frames at /api/v1/replicate: the follower long-polls with
// its shipping cursor (logID, seq) and the leader answers with every record
// from that seq on, then holds the connection open, flushing new records
// as they are appended and keepalive frames while idle. Each frame's
// payload is the JSON replFrame. The CRC makes a torn or bit-flipped frame
// detectable mid-stream (the follower drops the connection and re-pulls
// from its cursor — frames are idempotent to re-receive because the cursor
// only advances on apply), and the length prefix is bounded before any
// allocation.
//
// The stream carries the serving leader's current fencing epoch on every
// frame, and each record payload carries its writer's epoch. A follower
// rejects any frame whose stream epoch is below the highest epoch it has
// ever observed: a deposed leader that believes it still leads can
// therefore not ship one byte of state anywhere (counted in
// server_fenced_appends_total, alongside the leader-local append guard).

// maxReplFrame bounds one frame's payload before allocation.
const maxReplFrame = 1 << 20

// replFrame is the JSON payload of one replication frame. Rec is nil for
// keepalives.
type replFrame struct {
	// Seq is the log index of Rec (or the cursor high-water for keepalives).
	Seq int `json:"seq"`
	// Epoch is the serving leader's fencing epoch at send time.
	Epoch uint64 `json:"epoch"`
	// Rec is the shipped record (nil = keepalive).
	Rec *walRecord `json:"rec,omitempty"`
}

// encodeFrame writes one frame with a single Write.
func encodeFrame(w io.Writer, fr replFrame) error {
	payload, err := json.Marshal(fr)
	if err != nil {
		return err
	}
	if len(payload) > maxReplFrame {
		return fmt.Errorf("server: replication frame: payload %d over %d", len(payload), maxReplFrame)
	}
	_, err = w.Write(wal.AppendFrame(nil, payload))
	return err
}

// decodeFrame reads one frame under wal.ReadFrame's contract: io.EOF is a
// clean stream end at a frame boundary, wal.ErrTorn a torn frame,
// wal.ErrCorrupt structural damage — which here includes a payload that is
// not a replFrame.
func decodeFrame(r io.Reader) (replFrame, error) {
	var fr replFrame
	payload, err := wal.ReadFrame(r, maxReplFrame)
	if err != nil {
		return fr, err
	}
	if err := json.Unmarshal(payload, &fr); err != nil {
		return fr, fmt.Errorf("%w: bad payload: %v", wal.ErrCorrupt, err)
	}
	if fr.Seq < 0 {
		return fr, fmt.Errorf("%w: negative seq", wal.ErrCorrupt)
	}
	return fr, nil
}

// Replication stream pacing. The connection window bounds how long one
// stream pins a connection (the follower reconnects seamlessly from its
// cursor); keepalives let the follower distinguish an idle leader from a
// dead one.
const (
	replStreamWindow      = 25 * time.Second
	replKeepaliveInterval = 2 * time.Second
)

// handleReplicate streams the leader's log to a follower. Only the leader
// serves it (the role wrapper 503s it on followers).
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	q := r.URL.Query()
	from, _ := strconv.Atoi(q.Get("from"))
	if from < 0 {
		from = 0
	}
	reset := q.Get("logid") != s.store.LogID()
	if reset {
		// The follower's cursor belongs to a different log (this leader
		// restarted and compacted, or is a different node): restart the
		// shipment from zero and tell the follower to wipe first.
		from = 0
		w.Header().Set("X-Chaser-Replication-Reset", "true")
		s.reg.Counter("server_repl_resets_total").Inc()
	}
	w.Header().Set("X-Chaser-Log-Id", s.store.LogID())
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	deadline := time.Now().Add(replStreamWindow)
	for time.Now().Before(deadline) {
		select {
		case <-r.Context().Done():
			return
		default:
		}
		recs := s.store.WaitRecords(from, replKeepaliveInterval)
		epoch := s.currentEpoch()
		if recs == nil {
			if err := encodeFrame(w, replFrame{Seq: from, Epoch: epoch}); err != nil {
				return
			}
			fl.Flush()
			continue
		}
		for i := range recs {
			if s.chaos.Hit(ChaosReplDropFrame) {
				// Drop the frame and sever: the follower's cursor has not
				// advanced, so the reconnect re-ships it. Nothing is lost.
				s.logf("chaserd: chaos: dropping replication frame seq %d and severing stream", from)
				return
			}
			fr := replFrame{Seq: from, Epoch: epoch, Rec: &recs[i]}
			if s.chaos.Hit(ChaosReplTearFrame) {
				// Send a torn prefix and sever: the follower must detect the
				// damage and recover by reconnecting from its cursor.
				var buf bytes.Buffer
				if err := encodeFrame(&buf, fr); err == nil {
					w.Write(buf.Bytes()[:buf.Len()/2])
					fl.Flush()
				}
				s.logf("chaserd: chaos: tearing replication frame seq %d", from)
				return
			}
			if err := encodeFrame(w, fr); err != nil {
				return
			}
			from++
			s.reg.Counter("server_repl_frames_sent_total").Inc()
		}
		fl.Flush()
	}
}

// replicator is the follower half: it pulls the leader's stream and
// replays every record into the local store, maintaining the shipping
// cursor. It does not elect; the server's HA loop decides promotion and
// stops the replicator first.
type replicator struct {
	store  *Store
	fence  *Fencer
	reg    *obs.Registry
	logf   func(format string, args ...any)
	leader func() string // resolves the current leader's base URL ("" = unknown)
	self   string        // our own advertise URL (never replicate from ourselves)

	stop chan struct{}
	wg   sync.WaitGroup
	rng  *rand.Rand

	mu        sync.Mutex
	cursor    int
	leaderLog string // logID the cursor belongs to ("" = must resync)
	applied   uint64
}

func newReplicator(store *Store, fence *Fencer, reg *obs.Registry, logf func(string, ...any), self string, leader func() string) *replicator {
	return &replicator{
		store: store, fence: fence, reg: reg, logf: logf,
		leader: leader, self: self,
		stop: make(chan struct{}),
		rng:  rand.New(rand.NewSource(int64(siteHash(self)))),
	}
}

func (r *replicator) start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.run()
	}()
}

func (r *replicator) halt() {
	close(r.stop)
	r.wg.Wait()
}

// Applied returns how many records this replicator has applied (tests,
// metrics).
func (r *replicator) Applied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

func (r *replicator) run() {
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		base := r.leader()
		if base == "" || base == r.self {
			r.sleep(250 * time.Millisecond)
			continue
		}
		if err := r.streamOnce(base); err != nil {
			r.reg.Counter("server_repl_reconnects_total").Inc()
			r.logf("chaserd: replication stream from %s: %v", base, err)
			r.sleep(200 * time.Millisecond)
		}
	}
}

// sleep waits with jitter (so a reconnecting pair doesn't beat in sync),
// returning early on stop.
func (r *replicator) sleep(base time.Duration) {
	d := time.Duration(float64(base) * (0.5 + r.rng.Float64()))
	select {
	case <-r.stop:
	case <-time.After(d):
	}
}

// streamOnce opens one replication stream and applies frames until the
// stream ends (window expiry, error, damage) or the replicator stops.
func (r *replicator) streamOnce(base string) error {
	r.mu.Lock()
	cursor, leaderLog := r.cursor, r.leaderLog
	r.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-r.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	url := fmt.Sprintf("%s/api/v1/replicate?from=%d&logid=%s", base, cursor, leaderLog)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := replHTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	gotLog := resp.Header.Get("X-Chaser-Log-Id")
	if gotLog == "" {
		return fmt.Errorf("peer is not a replication source")
	}
	if resp.Header.Get("X-Chaser-Replication-Reset") == "true" || gotLog != leaderLog {
		// Shipping-cursor mismatch: wipe and resync from zero. The local
		// log's contents are either already represented in the leader's log
		// (it promoted from them) or belong to a deposed line of history.
		if err := r.store.Reset(); err != nil {
			return err
		}
		r.mu.Lock()
		r.cursor, r.leaderLog = 0, gotLog
		cursor = 0
		r.mu.Unlock()
		r.logf("chaserd: replication resync from %s (log %s)", base, gotLog)
	}

	// Watchdog: a silent stream (no frames, no keepalives) is a dead or
	// partitioned leader; sever and retry rather than hanging forever.
	watchdog := time.AfterFunc(3*replKeepaliveInterval, cancel)
	defer watchdog.Stop()

	for {
		fr, err := decodeFrame(resp.Body)
		if err == io.EOF {
			return nil // clean window end; reconnect from cursor
		}
		if err != nil {
			return err
		}
		watchdog.Reset(3 * replKeepaliveInterval)
		if max := r.fence.MaxSeen(); fr.Epoch < max {
			// A deposed leader is still streaming: refuse its state.
			r.reg.Counter("server_fenced_appends_total").Inc()
			return fmt.Errorf("stale leader: frame epoch %d < observed %d", fr.Epoch, max)
		}
		r.fence.noteEpoch(fr.Epoch)
		if fr.Rec == nil {
			continue // keepalive
		}
		switch {
		case fr.Seq < cursor:
			continue // duplicate (already applied); idempotent skip
		case fr.Seq > cursor:
			// A gap means the cursor and the stream disagree; force a full
			// resync next attempt.
			r.mu.Lock()
			r.leaderLog = ""
			r.mu.Unlock()
			return fmt.Errorf("replication gap: frame seq %d, cursor %d", fr.Seq, cursor)
		}
		if err := r.store.ApplyReplicated(*fr.Rec); err != nil {
			return err
		}
		cursor++
		r.mu.Lock()
		r.cursor = cursor
		r.applied++
		r.mu.Unlock()
		r.reg.Counter("server_repl_frames_applied_total").Inc()
	}
}

// replHTTPClient has no overall timeout (streams are long-lived); liveness
// is the keepalive watchdog's job.
var replHTTPClient = &http.Client{
	Transport: &http.Transport{ResponseHeaderTimeout: 10 * time.Second},
}
