package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordingTransport notes every request path it carries.
type recordingTransport struct {
	mu    sync.Mutex
	paths []string
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	rt.paths = append(rt.paths, req.URL.Path)
	rt.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// TestWaitSummaryUsesCallerHTTPClient: the summary long-poll goes out through
// Client.HTTPClient like every other request (it used to build a client of its
// own, bypassing a caller's transport or TLS configuration), polls again on
// 202 and waits a 404 out under the failover budget.
func TestWaitSummaryUsesCallerHTTPClient(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/summary") {
			http.NotFound(w, r)
			return
		}
		switch n := calls.Add(1); {
		case n <= 1: // the leader has not replayed the campaign yet
			writeErr(w, http.StatusNotFound, errors.New("no such campaign"))
		case n == 2: // still running
			writeJSON(w, http.StatusAccepted, map[string]string{"state": "running"})
		default:
			writeJSON(w, http.StatusOK, SummaryDoc{Report: "done"})
		}
	}))
	defer ts.Close()

	rt := &recordingTransport{}
	cl := NewClient(ts.URL)
	cl.HTTPClient = &http.Client{Transport: rt}
	doc, err := cl.WaitSummary("c1")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Report != "done" {
		t.Errorf("summary = %+v", doc)
	}
	if len(rt.paths) != 3 {
		t.Errorf("the caller's transport carried %d requests, want 3: %v", len(rt.paths), rt.paths)
	}
	for _, p := range rt.paths {
		if p != "/api/v1/campaigns/c1/summary" {
			t.Errorf("unexpected request %q", p)
		}
	}

	// A campaign no peer ever knows spends the budget and says so.
	calls.Store(-1 << 20)
	cl.FailoverWait = 300 * time.Millisecond
	_, err = cl.WaitSummary("c1")
	var fe *FailoverError
	var re *RemoteError
	if !errors.As(err, &fe) || !errors.As(err, &re) || re.Status != http.StatusNotFound {
		t.Errorf("unknown campaign = %v, want *FailoverError wrapping the 404", err)
	}
}
