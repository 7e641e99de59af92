package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Client talks to a chaserd over HTTP. It implements Control (for workers)
// and the submit/watch surface (for cmd/campaign). Every request carries its
// own deadline (requestTimeout; the summary long-poll a longer one), whatever
// HTTP client sends it.
//
// In HA deployments a client is built with the full peer list
// ("host:port,host:port"); it remembers which peer last served it (sticky),
// follows the follower's 307 redirects to the leader automatically, and on
// connection failure or 503 rotates through the remaining peers, honoring
// Retry-After, until the failover budget is spent. A request no peer would
// serve comes back as *FailoverError.
type Client struct {
	// Base is the preferred server address, e.g. "http://127.0.0.1:7070".
	Base string
	// Peers lists every known server (failover candidates, includes Base).
	Peers []string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// FailoverWait caps the total time spent cycling peers and sleeping on
	// Retry-After before a request fails with *FailoverError (default 30s).
	FailoverWait time.Duration

	mu     sync.Mutex
	sticky string // the peer (or redirect target) that last served us
}

// NewClient builds a client for base ("host:port" or full URL). A
// comma-separated list of addresses configures the HA peer set; the first
// entry is the initial preference.
func NewClient(base string) *Client {
	var peers []string
	for _, p := range strings.Split(base, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		peers = append(peers, strings.TrimRight(p, "/"))
	}
	if len(peers) == 0 {
		peers = []string{"http://" + base}
	}
	return &Client{Base: peers[0], Peers: peers}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// requestTimeout bounds one attempt of an ordinary request.
const requestTimeout = 30 * time.Second

func (c *Client) failoverWait() time.Duration {
	if c.FailoverWait > 0 {
		return c.FailoverWait
	}
	return 30 * time.Second
}

// currentPeer returns the sticky peer, falling back to Base.
func (c *Client) currentPeer() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sticky != "" {
		return c.sticky
	}
	return c.Base
}

// noteServed records the address that actually served a response — after
// any redirects — so the next request goes straight to the leader.
func (c *Client) noteServed(resp *http.Response) {
	if resp.Request == nil || resp.Request.URL == nil {
		return
	}
	u := resp.Request.URL
	c.mu.Lock()
	c.sticky = u.Scheme + "://" + u.Host
	c.mu.Unlock()
}

// rotate advances the sticky peer past the one that just failed. If the
// failed address is not in Peers (a redirect target that died), fall back
// to the head of the peer list.
func (c *Client) rotate(from string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := c.sticky; cur != "" && cur != from {
		return // another goroutine already moved on
	}
	for i, p := range c.Peers {
		if p == from {
			c.sticky = c.Peers[(i+1)%len(c.Peers)]
			return
		}
	}
	if len(c.Peers) > 0 {
		c.sticky = c.Peers[0]
	}
}

// RemoteError is a non-2xx response from chaserd, preserving the status
// code and any Retry-After hint so callers can implement the 429 contract.
type RemoteError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("chaserd: HTTP %d: %s", e.Status, e.Msg)
}

// FailoverError reports that no configured peer would serve a request
// within the failover budget: every one was down or leaderless.
type FailoverError struct {
	Peers  []string      // the peer set that was tried
	Waited time.Duration // total time spent before giving up
	Last   error         // the final per-peer failure
}

func (e *FailoverError) Error() string {
	return fmt.Sprintf("chaserd: no peer served the request after %s (peers %s): %v",
		e.Waited.Round(time.Millisecond), strings.Join(e.Peers, ", "), e.Last)
}

func (e *FailoverError) Unwrap() error { return e.Last }

// retryableAcross reports whether an error may be retried against another
// peer. A 503 (follower with no leader, or mid-demotion) is always safe:
// the server refused before touching state. Transport errors are safe for
// idempotent requests; for POSTs only failures that provably happened
// before the request was delivered (dial errors) qualify — a timeout after
// delivery might have been processed.
func retryableAcross(err error, idempotent bool) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Status == http.StatusServiceUnavailable
	}
	var ue *url.Error
	if !errors.As(err, &ue) {
		return false
	}
	if idempotent {
		return true
	}
	var oe *net.OpError
	if errors.As(ue, &oe) && oe.Op == "dial" {
		return true
	}
	return errors.Is(ue, syscall.ECONNREFUSED)
}

// retryDelay picks how long to sleep before the next peer attempt.
func retryDelay(err error) time.Duration {
	var re *RemoteError
	if errors.As(err, &re) && re.RetryAfter > 0 {
		return re.RetryAfter
	}
	return 250 * time.Millisecond
}

// do issues one request with failover and decodes a JSON body into out
// (when non-nil).
func (c *Client) do(method, path string, body, out any) error {
	_, err := c.doClient(method, path, body, out, requestTimeout, nil)
	return err
}

// doClient is the one failover loop: it sends the request to the sticky peer
// and, while the failure is one another peer might not repeat
// (retryableAcross), rotates, sleeps the server's Retry-After (or a default)
// and tries again until the failover budget is spent. samePeer, when non-nil,
// names further errors worth waiting out at the same peer under the same
// budget. timeout bounds each attempt. It returns the status of the response
// that ended the loop.
func (c *Client) doClient(method, path string, body, out any, timeout time.Duration, samePeer func(error) bool) (int, error) {
	var payload []byte
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		payload = raw
	}
	idempotent := method == http.MethodGet
	var waited time.Duration
	for {
		peer := c.currentPeer()
		status, err := c.doOnce(peer, method, path, payload, out, timeout)
		if err == nil {
			return status, nil
		}
		across := retryableAcross(err, idempotent)
		if !across && (samePeer == nil || !samePeer(err)) {
			return status, err
		}
		wait := retryDelay(err)
		if waited+wait > c.failoverWait() {
			return status, &FailoverError{Peers: append([]string(nil), c.Peers...), Waited: waited, Last: err}
		}
		if across {
			c.rotate(peer)
		}
		time.Sleep(wait)
		waited += wait
	}
}

// doOnce issues one request against one peer. Transport failures surface
// as *url.Error, HTTP failures as *RemoteError (or ErrLeaseUnknown). A 2xx
// body is decoded into out, except 202 and 204, which carry no result.
func (c *Client) doOnce(base, method, path string, payload []byte, out any, timeout time.Duration) (int, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		re := &RemoteError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(raw))}
		var he httpError
		if json.Unmarshal(raw, &he) == nil && he.Error != "" {
			re.Msg = he.Error
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			re.RetryAfter = time.Duration(ra) * time.Second
		}
		if resp.StatusCode == http.StatusNotFound && strings.Contains(re.Msg, "lease") {
			return resp.StatusCode, fmt.Errorf("%w (%s)", ErrLeaseUnknown, re.Msg)
		}
		return resp.StatusCode, re
	}
	c.noteServed(resp)
	if resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusAccepted || out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(raw, out)
}

// Submit posts a spec, honoring 429 + Retry-After with bounded waiting
// (at most ~30s total) before giving up — the graceful-degradation side of
// the admission-control contract. Failover across peers happens one layer
// down, with its own budget.
func (c *Client) Submit(sp Spec) (string, error) {
	var waited time.Duration
	for {
		var resp struct {
			ID string `json:"id"`
		}
		err := c.do(http.MethodPost, "/api/v1/campaigns", sp, &resp)
		if err == nil {
			return resp.ID, nil
		}
		var re *RemoteError
		if errors.As(err, &re) && re.Status == http.StatusTooManyRequests && waited < 30*time.Second {
			wait := re.RetryAfter
			if wait <= 0 {
				wait = time.Second
			}
			waited += wait
			time.Sleep(wait)
			continue
		}
		return "", err
	}
}

// Status fetches one campaign's status.
func (c *Client) Status(id string) (*CampaignStatus, error) {
	var st CampaignStatus
	if err := c.do(http.MethodGet, "/api/v1/campaigns/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// SummaryDoc is the stored summary document: the pre-rendered report text
// (histogram internals do not survive a JSON round trip, so the server
// renders the report at merge time) plus the raw summary JSON.
type SummaryDoc struct {
	Report  string          `json:"report"`
	Summary json.RawMessage `json:"summary"`
}

// WaitSummary long-polls until the campaign completes and returns its
// summary document. It re-polls indefinitely while the campaign is active
// and rides out failovers: each poll has the failover budget to itself, so
// a leader crash mid-watch costs one promotion, not the watch. A 404 is
// waited out under that budget too before it is returned. An append the
// deposed leader validated just before its lease ran out lands in the log
// file the new leader had already replaced; for a submit, the deposed
// leader's second guard check answers 503 rather than the lost ID, so
// Submit fails over and a 404 here means a bad ID.
func (c *Client) WaitSummary(id string) (*SummaryDoc, error) {
	unknown := func(err error) bool {
		var re *RemoteError
		return errors.As(err, &re) && re.Status == http.StatusNotFound
	}
	for {
		var doc SummaryDoc
		// The per-attempt deadline must exceed the server's long-poll cap (60s).
		status, err := c.doClient(http.MethodGet, "/api/v1/campaigns/"+id+"/summary?wait=30s", nil, &doc, 90*time.Second, unknown)
		if err != nil {
			return nil, err
		}
		if status == http.StatusOK {
			return &doc, nil
		}
		// 202: the campaign is alive and being served; poll again.
	}
}

// Claim implements Control over HTTP. (nil, nil) mirrors the server's 204.
func (c *Client) Claim(worker string) (*Assignment, error) {
	req := struct {
		Worker string `json:"worker"`
	}{worker}
	var a Assignment
	err := c.do(http.MethodPost, "/api/v1/leases", req, &a)
	if err != nil {
		return nil, err
	}
	if a.Token == "" { // 204: no body was decoded
		return nil, nil
	}
	return &a, nil
}

// Heartbeat implements Control over HTTP.
func (c *Client) Heartbeat(token string) error {
	return c.do(http.MethodPost, "/api/v1/leases/"+token+"/heartbeat", struct{}{}, nil)
}

// Complete implements Control over HTTP.
func (c *Client) Complete(token string) error {
	return c.do(http.MethodPost, "/api/v1/leases/"+token+"/complete", struct{}{}, nil)
}

// Fail implements Control over HTTP.
func (c *Client) Fail(token, reason string) error {
	req := struct {
		Reason string `json:"reason"`
	}{reason}
	return c.do(http.MethodPost, "/api/v1/leases/"+token+"/fail", req, nil)
}
