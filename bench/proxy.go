package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// countingProxy forwards TCP to backend and counts the bytes that cross it
// in both directions. In front of the TaintHub it gives real wire bytes per
// RPC instead of an estimate from payload sizes.
type countingProxy struct {
	lis     net.Listener
	backend string
	bytes   atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

func newCountingProxy(backend string) (*countingProxy, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{lis: lis, backend: backend, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) addr() string { return p.lis.Addr().String() }

// track registers a connection for close; it reports false once the proxy
// is closing.
func (p *countingProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *countingProxy) accept() {
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
		go p.pipe(out, in)
		go p.pipe(in, out)
	}
}

// pipe copies src to dst until either side ends, then closes both so the
// opposite direction's copy ends too.
func (p *countingProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	// A copy error only says the connection ended.
	_, _ = io.Copy(dst, countingReader{src, &p.bytes})
	dst.Close()
	src.Close()
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n.Add(int64(n))
	return n, err
}

// close stops accepting, closes every connection and waits for the copy
// goroutines to end.
func (p *countingProxy) close() {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.lis.Close()
	p.wg.Wait()
}
