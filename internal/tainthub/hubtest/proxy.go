// Package hubtest holds what tests of the TaintHub's clients share: a
// listener that stands in front of a hub server and counts what crosses it.
package hubtest

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"chaser/internal/tainthub/codec"
)

// maxFrame bounds a request frame the proxy will forward.
const maxFrame = 96 << 20

// Proxy forwards TCP connections to a hub server and counts the request
// frames, and the requests aboard them, on their way there: a batch frame is
// one frame and as many requests as it has entries.
type Proxy struct {
	lis      net.Listener
	backend  string
	frames   atomic.Int64
	requests atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewProxy listens on a loopback port and forwards to backend.
func NewProxy(backend string) (*Proxy, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{lis: lis, backend: backend, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the address clients dial.
func (p *Proxy) Addr() string { return p.lis.Addr().String() }

// Frames returns the request frames forwarded so far.
func (p *Proxy) Frames() int64 { return p.frames.Load() }

// Requests returns the requests forwarded so far, a batch's entries each
// counted.
func (p *Proxy) Requests() int64 { return p.requests.Load() }

// track registers a connection for Close; it reports false once the proxy is
// closing.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		in, err := p.lis.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.backend)
		if err != nil {
			in.Close()
			continue
		}
		if !p.track(in) || !p.track(out) {
			in.Close()
			out.Close()
			return
		}
		p.wg.Add(2)
		go p.requestsTo(out, in)
		go p.responsesTo(in, out)
	}
}

// requestsTo decodes the client's request frames, counts them and writes them
// on to the server, until either side ends.
func (p *Proxy) requestsTo(server, client net.Conn) {
	defer p.wg.Done()
	defer server.Close()
	defer client.Close()
	br := bufio.NewReader(client)
	format, err := codec.Detect(br)
	if err != nil {
		return
	}
	parser, emit := codec.NewParser(format, br, maxFrame), codec.NewEmitter(format, server)
	for {
		req, err := parser.ReadRequest()
		if err != nil {
			return
		}
		p.frames.Add(1)
		p.requests.Add(int64(max(1, len(req.Batch))))
		if emit.WriteRequest(req) != nil || emit.Flush() != nil {
			return
		}
	}
}

// responsesTo copies the server's bytes back to the client.
func (p *Proxy) responsesTo(client, server net.Conn) {
	defer p.wg.Done()
	// A copy error only says the connection ended.
	_, _ = io.Copy(client, server)
	client.Close()
	server.Close()
}

// Close stops accepting, closes every connection and waits for the forwarding
// goroutines to end.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.lis.Close()
	p.wg.Wait()
}
