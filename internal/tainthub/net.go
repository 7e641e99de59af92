package tainthub

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chaser/internal/obs"
	"chaser/internal/tainthub/codec"
)

// The wire protocol is one request frame / one response frame over TCP,
// serialized by the codec package: either the legacy newline-delimited JSON
// format or the compact length-prefixed binary format (the default). The
// server autodetects the format per connection from the first byte; the
// client pipelines requests over one connection and coalesces concurrent
// calls into batch frames, so one round trip carries many logical RPCs.

// FrameError re-exports the codec type: a request frame exceeding the
// server's limit — the wire-level DoS guard that rejects an oversized
// Publish before its payload is buffered. It is recoverable: the codec has
// already resynchronized the stream past the refused frame.
type FrameError = codec.FrameError

// response aliases the wire response; tests build and decode it directly.
type response = codec.Response

// serverObs bundles the server's instruments; nil when no registry is
// attached.
type serverObs struct {
	requests  *obs.Counter
	malformed *obs.Counter
	publishes *obs.Counter
	polls     *obs.Counter
	pollHits  *obs.Counter
	pollMiss  *obs.Counter
	idleDrops *obs.Counter
	rpcLat    *obs.Histogram
}

func newServerObs(reg *obs.Registry) *serverObs {
	if reg == nil {
		return nil
	}
	return &serverObs{
		requests:  reg.Counter("tainthub_requests_total"),
		malformed: reg.Counter("tainthub_malformed_requests_total"),
		publishes: reg.Counter("tainthub_publishes_total"),
		polls:     reg.Counter("tainthub_polls_total"),
		pollHits:  reg.Counter("tainthub_poll_hits_total"),
		pollMiss:  reg.Counter("tainthub_poll_misses_total"),
		idleDrops: reg.Counter("tainthub_idle_disconnects_total"),
		rpcLat:    reg.Histogram("tainthub_rpc_seconds", obs.LatencyBuckets...),
	}
}

// ServerConfig tunes a hub server beyond the defaults.
type ServerConfig struct {
	// Obs, when non-nil, receives server telemetry.
	Obs *obs.Registry
	// IdleTimeout disconnects a client whose connection stays silent for
	// this long (0 = never). Dead campaign workers then cannot pin server
	// resources forever.
	IdleTimeout time.Duration
	// MaxFrameBytes caps one request frame; larger frames are rejected with
	// *FrameError before the payload is buffered (default 96 MiB — a 64 MiB
	// mask payload base64-expands to ~85 MiB plus JSON overhead).
	MaxFrameBytes int
	// Wire pins the wire format. FormatAuto (the default) detects the
	// format per connection from its first byte; a pinned format refuses
	// connections speaking the other one.
	Wire codec.Format
	// Logf overrides the server's logger (nil = log.Printf).
	Logf func(format string, args ...any)
}

// defaultMaxFrame bounds a request frame when ServerConfig.MaxFrameBytes
// is zero.
const defaultMaxFrame = 96 << 20

// connReadBuffer is the buffered reader of a connection, server or client
// side. A frame is some 35 bytes; a payload larger than the buffer is read
// around it (binary) or accumulated chunk by chunk (JSON).
const connReadBuffer = 4 << 10

// Server exposes a hub over TCP.
type Server struct {
	hub      Hub
	ln       net.Listener
	wg       sync.WaitGroup
	obs      *serverObs
	idle     time.Duration
	maxFrame int
	wire     codec.Format
	logf     func(format string, args ...any)

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// NewServer starts serving hub on addr (e.g. "127.0.0.1:0"). Use Addr to
// discover the bound address.
func NewServer(hub Hub, addr string) (*Server, error) {
	return NewServerConfig(hub, addr, ServerConfig{})
}

// NewServerObs is NewServer with a metrics registry attached (nil disables
// telemetry).
func NewServerObs(hub Hub, addr string, reg *obs.Registry) (*Server, error) {
	return NewServerConfig(hub, addr, ServerConfig{Obs: reg})
}

// NewServerConfig is NewServer with full tuning.
func NewServerConfig(hub Hub, addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tainthub: listen: %w", err)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	maxFrame := cfg.MaxFrameBytes
	if maxFrame <= 0 {
		maxFrame = defaultMaxFrame
	}
	s := &Server{
		hub:      hub,
		ln:       ln,
		obs:      newServerObs(cfg.Obs),
		idle:     cfg.IdleTimeout,
		maxFrame: maxFrame,
		wire:     cfg.Wire,
		logf:     logf,
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server: it stops accepting, wakes every connection
// blocked in a read, lets in-flight requests finish and their responses
// flush, and waits for all serve goroutines to drain. It is idempotent and
// safe to call concurrently.
//
// The drain is graceful on purpose: a request the server has processed
// always gets its response delivered, so a client does not pay a retry for
// work already done (repeating it would be harmless — every op is
// idempotent — just wasted).
func (s *Server) Close() error {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	for c := range s.conns {
		// Wake blocked decodes without closing the connection mid-write;
		// each serve goroutine closes its own connection as it drains.
		_ = c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	var err error
	if !wasClosed {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// Abort stops the server abruptly: connections are hard-closed with
// responses potentially unsent, exactly as a process crash would leave
// them. Clients see transport errors and retry against the replacement
// server, which is safe because every op is idempotent. Tests and crash
// drills use it; production shutdown wants Close.
func (s *Server) Abort() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	s.wg.Wait()
}

func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReaderSize(conn, connReadBuffer)
	if s.idle > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.idle))
	}
	format := s.wire
	if format == codec.FormatAuto {
		// Peek the first byte to classify the connection's format without
		// consuming it; the binary magic can never begin a JSON request.
		f, err := codec.Detect(br)
		if err != nil {
			switch {
			case s.closing():
			case isTimeout(err):
				if s.obs != nil {
					s.obs.idleDrops.Inc()
				}
				s.logf("tainthub: disconnecting idle client %s", conn.RemoteAddr())
			}
			return
		}
		format = f
	}
	parser := codec.NewParser(format, br, s.maxFrame)
	emitter := codec.NewEmitter(format, conn)
	for {
		if s.closing() {
			return
		}
		if s.idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.idle))
		}
		req, err := parser.ReadRequest()
		if err != nil {
			var fe *codec.FrameError
			var pe *codec.PayloadError
			switch {
			case s.closing():
				// Shutdown woke the read; drain silently.
			case isTimeout(err):
				if s.obs != nil {
					s.obs.idleDrops.Inc()
				}
				s.logf("tainthub: disconnecting idle client %s", conn.RemoteAddr())
			case errors.As(err, &fe):
				// Oversized frame: count it with the malformed requests,
				// refuse it, but keep the connection — the codec has already
				// resynchronized the stream past the refused frame (the JSON
				// parser drains to the actual newline, the binary parser
				// skips the declared length).
				if s.obs != nil {
					s.obs.malformed.Inc()
				}
				s.logf("tainthub: oversized request from %s: %v", conn.RemoteAddr(), err)
				if werr := writeResponse(emitter, response{Err: err.Error(), Code: codec.CodeFrame}); werr == nil {
					continue
				}
			case errors.As(err, &pe):
				// The frame was structurally sound but its payload can never
				// decode (bad base64, corrupt RLE). Permanent for the sender,
				// recoverable for the connection: the frame was fully
				// consumed, so refuse it with a typed code and keep reading.
				if s.obs != nil {
					s.obs.malformed.Inc()
				}
				s.logf("tainthub: undecodable payload from %s: %v", conn.RemoteAddr(), err)
				if werr := writeResponse(emitter, response{Err: err.Error(), Code: codec.CodePayload}); werr == nil {
					continue
				}
			case isMalformed(err):
				// A garbage request is a signal (corrupted client, stray
				// connection, protocol drift) — count it, log it, tell the
				// peer, and drop the connection: the stream position is
				// unreliable after a framing error.
				if s.obs != nil {
					s.obs.malformed.Inc()
				}
				s.logf("tainthub: malformed request from %s: %v", conn.RemoteAddr(), err)
				_ = writeResponse(emitter, response{Err: "malformed request: " + err.Error()})
			}
			return
		}
		resp := s.handle(req)
		if writeResponse(emitter, resp) != nil {
			return
		}
	}
}

// writeResponse emits one response frame and pushes it onto the wire.
func writeResponse(e codec.Emitter, resp codec.Response) error {
	if err := e.WriteResponse(resp); err != nil {
		return err
	}
	return e.Flush()
}

// isMalformed distinguishes a garbage request from an ordinary disconnect
// (EOF, closed connection, reset).
func isMalformed(err error) bool {
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	var mal *codec.MalformedError
	return errors.As(err, &syn) || errors.As(err, &typ) || errors.As(err, &mal) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handle dispatches one request frame. A batch frame fans out to its
// entries — each is a full logical RPC with its own ReqID, metrics, and
// response slot; the batch reply preserves order.
func (s *Server) handle(req codec.Request) codec.Response {
	if req.Op == codec.OpBatch {
		if len(req.Batch) == 0 {
			if s.obs != nil {
				s.obs.malformed.Inc()
			}
			return response{Err: "empty batch"}
		}
		out := make([]codec.Response, len(req.Batch))
		for i := range req.Batch {
			out[i] = s.handleOne(req.Batch[i])
		}
		return codec.Response{OK: true, Batch: out}
	}
	return s.handleOne(req)
}

func (s *Server) handleOne(req codec.Request) codec.Response {
	var t0 time.Time
	if s.obs != nil {
		s.obs.requests.Inc()
		t0 = time.Now()
	}
	resp := s.dispatch(req)
	// Echo the ReqID so a pipelined client can verify correlation.
	resp.Client = req.Client
	resp.Req = req.Req
	if s.obs != nil {
		s.obs.rpcLat.Observe(time.Since(t0).Seconds())
	}
	return resp
}

// hubError maps a hub-level error onto the wire: a *BusyError becomes a
// retryable busy response carrying the backoff hint, a *PayloadError
// (masks over the hub's payload limit) is refused with the permanent
// payload code so clients stop retrying bytes that can never be accepted,
// anything else is a plain application error.
func (s *Server) hubError(err error) codec.Response {
	var be *BusyError
	if errors.As(err, &be) {
		return response{Busy: true, RetryAfterMs: int64(be.RetryAfter / time.Millisecond)}
	}
	var pe *PayloadError
	if errors.As(err, &pe) {
		if s.obs != nil {
			s.obs.malformed.Inc()
		}
		s.logf("tainthub: rejected oversized payload: %v", pe)
		return response{Err: err.Error(), Code: codec.CodePayload}
	}
	return response{Err: err.Error()}
}

func (s *Server) dispatch(req codec.Request) codec.Response {
	k := Key{Src: req.Src, Dst: req.Dst, Tag: req.Tag, NS: req.NS}
	id := ReqID{Client: req.Client, Seq: req.Req}
	switch req.Op {
	case codec.OpPublish:
		if err := s.hub.Publish(id, k, req.Seq, req.Masks); err != nil {
			return s.hubError(err)
		}
		if s.obs != nil {
			s.obs.publishes.Inc()
		}
		return response{OK: true}
	case codec.OpPoll:
		masks, found, err := s.hub.Poll(id, k, req.Seq)
		if err != nil {
			return s.hubError(err)
		}
		if s.obs != nil {
			s.obs.polls.Inc()
			if found {
				s.obs.pollHits.Inc()
			} else {
				s.obs.pollMiss.Inc()
			}
		}
		return response{OK: true, Found: found, Masks: masks}
	case codec.OpRetire:
		r, ok := s.hub.(Retirer)
		if !ok {
			return response{Err: "hub does not retire"}
		}
		if err := r.Retire(req.NS, req.NSEnd); err != nil {
			return s.hubError(err)
		}
		return response{OK: true}
	case codec.OpStats:
		st := s.hub.Stats()
		return response{OK: true, Stats: &st}
	case codec.OpBatch:
		return response{Err: "batches do not nest"}
	}
	if s.obs != nil {
		s.obs.malformed.Inc()
	}
	s.logf("tainthub: unknown op %q", req.Op)
	return response{Err: fmt.Sprintf("unknown op %q", req.Op)}
}

// ClientConfig tunes the hardened TCP hub client. The zero value selects
// sane production defaults; see the field comments.
type ClientConfig struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// RPCTimeout bounds one request/response round trip; a stalled or dead
	// server surfaces as an error instead of hanging the caller forever
	// (default 10s).
	RPCTimeout time.Duration
	// MaxAttempts is the total number of tries per RPC including the
	// first; 1 disables retry (default 4).
	MaxAttempts int
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it, capped at BackoffMax, with ±50% jitter so a fleet of
	// campaign workers does not thundering-herd a restarting hub
	// (defaults 10ms / 1s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Wire selects the wire format. FormatAuto (the default) speaks binary;
	// FormatJSON speaks the legacy protocol to old servers.
	Wire codec.Format
	// MaxBatch caps how many concurrent calls coalesce into one batch
	// frame; 1 disables batching (default 64).
	MaxBatch int
	// MaxBatchBytes caps the estimated payload of one batch frame, so a few
	// huge publishes do not ride in one frame near the server's limit
	// (default 1 MiB).
	MaxBatchBytes int
	// MaxInflight caps pipelined request frames awaiting responses on one
	// connection (default 64).
	MaxInflight int
	// Obs, when non-nil, receives client telemetry: hub_rpc_retries_total,
	// hub_reconnects_total, hub_rpc_failures_total.
	Obs *obs.Registry
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 1 << 20
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	return c
}

var errClientClosed = errors.New("tainthub: client closed")

// call is one in-flight RPC — or a flight's two, its publish (req) and the
// poll riding the same frame right behind it (then). state is a claim token:
// whoever flips it from 0 to 1 — the session's reader delivering a response,
// or the caller rescuing itself after the session died — owns the call's
// outcome. The token is what lets callers abandon a dead session without any
// drain handshake with its goroutines.
//
// An answered call goes back to callPool, its done channel (one slot, filled
// by the one delivery) and its deadline timer with it, and serves the next
// RPC. That is sound because an answered call has left the session: the
// writer takes a call's requests out before it hands the call to the reader,
// and the reader touches a call last when it delivers. A call claimed back is
// never reused — the dead session's queues may still hold it.
type call struct {
	req, then     codec.Request // then.Op is empty on an ordinary call
	resp, thenRsp codec.Response
	state         atomic.Int32 // 0 pending, 1 claimed
	done          chan struct{}
	timer         *time.Timer // the wait's RPC deadline, nil until first armed
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// width is the number of requests the call puts on the wire.
func (c *call) width() int {
	if c.then.Op != "" {
		return 2
	}
	return 1
}

// deliver hands the call its response (and then's, on a flight) unless the
// caller already claimed it back.
func (c *call) deliver(resp, then codec.Response) {
	if c.state.CompareAndSwap(0, 1) {
		c.resp, c.thenRsp = resp, then
		c.done <- struct{}{}
	}
}

// claim returns true when the caller now owns the call: no response was
// delivered, and none will be.
func (c *call) claim() bool { return c.state.CompareAndSwap(0, 1) }

// arm starts the call's deadline.
func (c *call) arm(d time.Duration) {
	if c.timer == nil {
		c.timer = time.NewTimer(d)
	} else {
		c.timer.Reset(d)
	}
}

// disarm stops the deadline and leaves the timer's channel empty for the next
// arm; fired says the caller already received the expiry.
func (c *call) disarm(fired bool) {
	if !c.timer.Stop() && !fired {
		<-c.timer.C
	}
}

// recycle returns an answered call, its responses read, to the pool.
func (c *call) recycle() {
	c.req, c.then = codec.Request{}, codec.Request{}
	c.resp, c.thenRsp = codec.Response{}, codec.Response{}
	callPool.Put(c)
}

// session is one pipelined connection: a writer goroutine coalesces queued
// calls into frames, a reader goroutine correlates response frames back to
// call groups in FIFO order (the server processes one connection's frames
// sequentially, so frame order is response order; the echoed ReqID
// cross-checks it). Any transport error fails the whole session; callers
// notice via the done channel and retry on a fresh one.
type session struct {
	conn     net.Conn
	parser   codec.Parser
	emit     codec.Emitter
	sendq    chan *call
	inflight chan []*call // frame groups awaiting responses, FIFO

	failOnce sync.Once
	err      error
	done     chan struct{}
}

// fail terminates the session exactly once: records the reason, wakes every
// waiter, and closes the connection (unblocking both goroutines).
func (s *session) fail(err error) {
	s.failOnce.Do(func() {
		s.err = err
		close(s.done)
		_ = s.conn.Close()
	})
}

// failure returns the terminal error; only valid after done is closed.
func (s *session) failure() error { return s.err }

// reqSize estimates a request's frame contribution for batch sizing.
func reqSize(req codec.Request) int { return len(req.Masks) + 64 }

// writeLoop drains the send queue, opportunistically coalescing whatever
// calls are already waiting into one batch frame. Under light load every
// frame carries one call (no added latency); under concurrency one frame
// (and one syscall) carries up to maxBatch logical RPCs. A flight's two
// requests always share a frame: the server executes a batch's entries in
// order, so the poll finds what the publish in front of it stored.
func (s *session) writeLoop(maxBatch, maxBatchBytes int) {
	for {
		var first *call
		select {
		case <-s.done:
			return
		case first = <-s.sendq:
		}
		group := []*call{first}
		n, size := first.width(), reqSize(first.req)
		for n < maxBatch && size < maxBatchBytes {
			var next *call
			select {
			case next = <-s.sendq:
			default:
			}
			if next == nil {
				break
			}
			group = append(group, next)
			n += next.width()
			size += reqSize(next.req)
		}
		// The requests are taken out first: once the reader has the group the
		// writer does not touch its calls again (an answered call is reused).
		frame := first.req
		if n > 1 {
			batch := make([]codec.Request, 0, n)
			for _, c := range group {
				batch = append(batch, c.req)
				if c.width() == 2 {
					batch = append(batch, c.then)
				}
			}
			frame = codec.Request{Op: codec.OpBatch, Batch: batch}
		}
		// Publish the group to the reader before the bytes hit the wire, so
		// the response can never arrive before its group is known.
		select {
		case s.inflight <- group:
		case <-s.done:
			return
		}
		err := s.emit.WriteRequest(frame)
		if err == nil {
			err = s.emit.Flush()
		}
		if err != nil {
			s.fail(fmt.Errorf("tainthub: send: %w", err))
			return
		}
	}
}

// readLoop pops the oldest unanswered group, reads its response frame, and
// distributes the replies.
func (s *session) readLoop() {
	for {
		var group []*call
		select {
		case <-s.done:
			return
		case group = <-s.inflight:
		}
		resp, err := s.parser.ReadResponse()
		if err != nil {
			s.fail(fmt.Errorf("tainthub: recv: %w", err))
			return
		}
		if !s.deliverGroup(group, resp) {
			return
		}
	}
}

// deliverGroup hands the frame's replies to the group's calls, one a request
// in the order the writer put them aboard.
func (s *session) deliverGroup(group []*call, resp codec.Response) bool {
	n := 0
	for _, c := range group {
		n += c.width()
	}
	// One reply for the whole frame: the answer to a lone request, or the
	// server refusing the frame (oversized, undecodable), which every request
	// aboard gets.
	whole := resp.Batch == nil && (n == 1 || resp.Err != "")
	if !whole && len(resp.Batch) != n {
		s.fail(fmt.Errorf("tainthub: response shape mismatch (%d requests, %d replies)", n, len(resp.Batch)))
		return false
	}
	reply := func(i int) codec.Response {
		if whole {
			return resp
		}
		return resp.Batch[i]
	}
	i := 0
	for _, c := range group {
		if !echoMatches(c.req, reply(i)) || (c.width() == 2 && !echoMatches(c.then, reply(i+1))) {
			s.fail(errors.New("tainthub: response correlation mismatch"))
			return false
		}
		i += c.width()
	}
	i = 0
	for _, c := range group {
		// The width is read first: a delivered call is its caller's again.
		if w := c.width(); w == 2 {
			c.deliver(reply(i), reply(i+1))
			i += 2
		} else {
			c.deliver(reply(i), codec.Response{})
			i++
		}
	}
	return true
}

// echoMatches cross-checks the server's ReqID echo against the call. A zero
// echo (zero-ReqID ops, error replies, legacy servers) is accepted — the
// FIFO order is then the only correlation, which is how the protocol worked
// before the echo existed.
func echoMatches(req codec.Request, resp codec.Response) bool {
	if resp.Client == 0 && resp.Req == 0 {
		return true
	}
	return resp.Client == req.Client && resp.Req == req.Req
}

// Client is a Hub backed by a remote Server. It is safe for concurrent
// use; concurrent calls are pipelined over one connection and coalesced
// into batch frames. Transport failures are retried with exponential
// backoff and a transparent reconnect; server-reported application errors
// are returned immediately.
type Client struct {
	addr string
	cfg  ClientConfig
	wire codec.Format

	obsRetries    *obs.Counter
	obsReconnects *obs.Counter
	obsFailures   *obs.Counter

	mu        sync.Mutex
	closed    bool
	sess      *session
	connected bool // a session existed before, so the next dial is a reconnect
}

var (
	_ Hub           = (*Client)(nil)
	_ Retirer       = (*Client)(nil)
	_ FlightStarter = (*Client)(nil)
)

// Dial connects to a hub server with default hardening (see ClientConfig).
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, ClientConfig{})
}

// DialConfig connects to a hub server with explicit tuning. The initial
// connection is attempted once, eagerly, so a bad address fails fast;
// later transport failures reconnect transparently inside the retry loop.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	wire := cfg.Wire
	if wire == codec.FormatAuto {
		wire = codec.FormatBinary
	}
	c := &Client{addr: addr, cfg: cfg, wire: wire}
	if reg := cfg.Obs; reg != nil {
		c.obsRetries = reg.Counter("hub_rpc_retries_total")
		c.obsReconnects = reg.Counter("hub_reconnects_total")
		c.obsFailures = reg.Counter("hub_rpc_failures_total")
	}
	if _, err := c.session(); err != nil {
		return nil, err
	}
	return c, nil
}

// session returns the live session, dialing a fresh one if the previous
// died (or none exists yet).
func (c *Client) session() (*session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if c.sess != nil {
		select {
		case <-c.sess.done:
			c.sess = nil // dead; replace
		default:
			return c.sess, nil
		}
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("tainthub: dial %s: %w", c.addr, err)
	}
	s := &session{
		conn:     conn,
		parser:   codec.NewParser(c.wire, bufio.NewReaderSize(conn, connReadBuffer), defaultMaxFrame),
		emit:     codec.NewEmitter(c.wire, conn),
		sendq:    make(chan *call, c.cfg.MaxBatch),
		inflight: make(chan []*call, c.cfg.MaxInflight),
		done:     make(chan struct{}),
	}
	go s.writeLoop(c.cfg.MaxBatch, c.cfg.MaxBatchBytes)
	go s.readLoop()
	if c.connected {
		c.obsReconnects.Inc()
	}
	c.connected = true
	c.sess = s
	return s, nil
}

// Close closes the connection. It is idempotent; RPCs issued afterwards
// fail without reconnecting.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.sess != nil {
		c.sess.fail(errClientClosed)
		c.sess = nil
	}
	return nil
}

// backoff returns the sleep before retry number `attempt` (1-based):
// exponential from BackoffBase, capped at BackoffMax, with ±50% jitter.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase << uint(attempt-1)
	if d <= 0 || d > c.cfg.BackoffMax {
		d = c.cfg.BackoffMax
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// tried is the outcome of one attempt at an RPC: a transport error, or the
// server's reply.
type tried struct {
	resp codec.Response
	err  error
}

// ok reports whether the attempt settled the RPC: the server executed it and
// reported neither busy nor an error.
func (t tried) ok() bool { return t.err == nil && !t.resp.Busy && t.resp.Err == "" }

// roundTrip runs one RPC to its end: up to MaxAttempts tries, a transport
// failure retried after a jittered backoff on a fresh session, a busy hub
// after its retry-after hint, an application error returned at once. When
// first is non-nil it is the first try, already made (a flight's), and
// roundTrip takes it from there.
func (c *Client) roundTrip(req codec.Request, first *tried) (codec.Response, error) {
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.obsRetries.Inc()
			d := c.backoff(attempt)
			if retryAfter > d {
				d = retryAfter
			}
			time.Sleep(d)
			retryAfter = 0
		}
		var t tried
		if attempt == 0 && first != nil {
			t = *first
		} else {
			t = c.try(req)
		}
		resp, err := t.resp, t.err
		if err != nil {
			if errors.Is(err, errClientClosed) {
				return codec.Response{}, err
			}
			lastErr = err
			continue
		}
		if resp.Busy {
			// The server is over its pending limits: honor its retry-after
			// hint (the connection is fine, so no reconnect).
			retryAfter = time.Duration(resp.RetryAfterMs) * time.Millisecond
			lastErr = &BusyError{NS: req.NS, RetryAfter: retryAfter}
			continue
		}
		if resp.Err != "" {
			// The server processed the request and reported an application
			// error; retrying would only repeat it. Payload refusals come
			// back as the typed permanent error.
			if resp.Code == codec.CodePayload {
				return codec.Response{}, &codec.PayloadError{Reason: resp.Err}
			}
			return codec.Response{}, errors.New("tainthub: " + resp.Err)
		}
		return resp, nil
	}
	c.obsFailures.Inc()
	return codec.Response{}, fmt.Errorf("tainthub: rpc failed after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// try is one attempt at the RPC through the live session: enqueue the call,
// wait for its response.
func (c *Client) try(req codec.Request) tried {
	s, err := c.session()
	if err != nil {
		return tried{err: err}
	}
	cl, err := enqueue(s, req, codec.Request{})
	if err == nil {
		err = c.await(s, cl)
	}
	if err != nil {
		return tried{err: err}
	}
	t := tried{resp: cl.resp}
	cl.recycle()
	return t
}

// enqueue hands the session a call carrying req (and then, a flight's poll,
// when it has an Op) and returns without waiting for the answer.
func enqueue(s *session, req, then codec.Request) (*call, error) {
	cl := callPool.Get().(*call)
	cl.req, cl.then = req, then
	cl.state.Store(0)
	select {
	case s.sendq <- cl:
		return cl, nil
	case <-s.done:
		return nil, s.failure()
	}
}

// await waits for the call's response, the session's death, or the RPC
// deadline — counted from here, where the caller starts to wait — whichever
// comes first. On death or timeout the caller claims the call back (unless a
// response won the race) and the error sends the retry loop on.
func (c *Client) await(s *session, cl *call) error {
	select {
	case <-cl.done:
		return nil // answered before anyone waited for it: no deadline to arm
	default:
	}
	cl.arm(c.cfg.RPCTimeout)
	fired := false
	select {
	case <-cl.done:
		cl.disarm(fired)
		return nil
	case <-cl.timer.C:
		fired = true
		s.fail(fmt.Errorf("tainthub: rpc timed out after %v", c.cfg.RPCTimeout))
	case <-s.done:
	}
	if cl.claim() {
		cl.disarm(fired)
		return s.failure()
	}
	// A response was delivered concurrently with the session dying; take it.
	<-cl.done
	cl.disarm(fired)
	return nil
}

func publishRequest(id ReqID, k Key, seq uint64, masks []uint8) codec.Request {
	return codec.Request{
		Op: codec.OpPublish, Client: id.Client, Req: id.Seq,
		Src: k.Src, Dst: k.Dst, Tag: k.Tag, NS: k.NS, Seq: seq,
		Masks: masks,
	}
}

func pollRequest(id ReqID, k Key, seq uint64) codec.Request {
	return codec.Request{
		Op: codec.OpPoll, Client: id.Client, Req: id.Seq,
		Src: k.Src, Dst: k.Dst, Tag: k.Tag, NS: k.NS, Seq: seq,
	}
}

// Publish implements Hub. A re-send after a lost ack overwrites the entry
// with the same bytes.
func (c *Client) Publish(id ReqID, k Key, seq uint64, masks []uint8) error {
	_, err := c.roundTrip(publishRequest(id, k, seq, masks), nil)
	return err
}

// Poll implements Hub. A retry after a lost response reads the same entry
// again.
func (c *Client) Poll(id ReqID, k Key, seq uint64) ([]uint8, bool, error) {
	return polled(c.roundTrip(pollRequest(id, k, seq), nil))
}

func polled(resp codec.Response, err error) ([]uint8, bool, error) {
	if err != nil || !resp.Found {
		return nil, false, err
	}
	return resp.Masks, true, nil
}

// clientFlight is a flight on the pipelined session: one call carrying the
// publish and the poll, enqueued by StartFlight and awaited by Collect.
type clientFlight struct {
	c             *Client
	publish, poll codec.Request
	s             *session
	cl            *call // nil when the flight could not be enqueued: err says why
	err           error
}

// StartFlight implements FlightStarter: both requests go out in one batch
// frame and the caller does not wait.
func (c *Client) StartFlight(publish, poll ReqID, k Key, seq uint64, masks []uint8) Flight {
	f := &clientFlight{c: c, publish: publishRequest(publish, k, seq, masks), poll: pollRequest(poll, k, seq)}
	if f.s, f.err = c.session(); f.err == nil {
		f.cl, f.err = enqueue(f.s, f.publish, f.poll)
	}
	return f
}

// Collect implements Flight. What came back in the flight's frame is each
// request's first try; whatever that leaves unsettled — the session died, the
// deadline passed, the hub was busy — roundTrip finishes as it finishes any
// Publish and Poll. The poll's reply counts only behind a publish the same
// frame settled: one made before a retried publish landed would miss it.
func (f *clientFlight) Collect() FlightResult {
	publish, poll := tried{err: f.err}, tried{err: f.err}
	if f.cl != nil {
		if err := f.c.await(f.s, f.cl); err != nil {
			publish.err, poll.err = err, err
		} else {
			publish.resp, poll.resp = f.cl.resp, f.cl.thenRsp
			f.cl.recycle()
		}
		f.cl = nil
	}
	if _, err := f.c.roundTrip(f.publish, &publish); err != nil {
		return FlightResult{PublishErr: err}
	}
	first := &poll
	if !publish.ok() {
		first = nil
	}
	var res FlightResult
	res.Masks, res.Found, res.PollErr = polled(f.c.roundTrip(f.poll, first))
	return res
}

// Retire implements Retirer.
func (c *Client) Retire(lo, hi int) error {
	_, err := c.roundTrip(codec.Request{Op: codec.OpRetire, NS: lo, NSEnd: hi}, nil)
	return err
}

// Stats implements Hub.
func (c *Client) Stats() Stats {
	resp, err := c.roundTrip(codec.Request{Op: codec.OpStats}, nil)
	if err != nil || resp.Stats == nil {
		return Stats{}
	}
	return *resp.Stats
}
