package trace_test

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"chaser/internal/apps"
	"chaser/internal/core"
)

// Golden propagation logs. testdata/<app>.jsonl.gz is the -trace-out log of a
// fixed-seed run and testdata/graphs.sha256 the digest of its provenance
// graph, both written by the commit before the log was repacked (run this
// test there with -update to regenerate). A serial guest's log must match
// byte for byte. An MPI guest's ranks append concurrently, so its log is
// compared stream by stream: the records one rank produced, in the order it
// produced them, whatever order the ranks' streams were written in.

var update = flag.Bool("update", false, "rewrite testdata/ from this build's logs")

var goldenRuns = []struct {
	app  string
	n    uint64
	seed int64
}{
	{"lud", 14000, 7},      // one rank, 14,410 accesses: the log must match byte for byte
	{"matvec", 300, 3},     // four ranks, taint crosses them through the hub
	{"clamr_mpi", 1000, 5}, // four ranks, 13,212 accesses, the benchmark's traced guest
}

// goldenRun is the run `chaser -app <app> -n <n> -seed <seed> -trace` makes.
func goldenRun(t *testing.T, name string, n uint64, seed int64) *core.RunResult {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rank := app.TargetRank
	if rank < 0 {
		rank = 0
	}
	res, err := core.Run(core.RunConfig{
		Prog: app.Prog, WorldSize: app.WorldSize,
		Spec: &core.Spec{
			Target: app.Name, Ops: app.DefaultOps, TargetRank: rank,
			Cond: core.Deterministic{N: n}, Bits: 1, Seed: seed, Trace: true, MaxInjections: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injected() {
		t.Fatalf("%s: no injection at execution %d", name, n)
	}
	return res
}

// graphDigest hashes the run's provenance graph as WriteJSON prints it.
// BuildGraph stitches message edges in map order, after every data edge;
// they are sorted first so the digest depends on the graph alone.
func graphDigest(t *testing.T, res *core.RunResult) string {
	t.Helper()
	g := res.Provenance()
	sort.SliceStable(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.Kind != "message" || b.Kind != "message" {
			return a.Kind != "message" && b.Kind == "message"
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// streams splits a JSON-lines log into its header lines and, per kind and
// producing rank, the lines of that stream in log order.
func streams(t *testing.T, log []byte) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(log), "\n"), "\n") {
		var rec struct {
			Kind  string
			Event *struct{ Rank int }
			Cross *struct {
				Src, Dst int
				Meta     bool
			}
			Sample, Output *struct{ Rank int }
			Send           *struct{ Src int }
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		key := rec.Kind
		switch {
		case rec.Event != nil:
			key = fmt.Sprintf("event/%d", rec.Event.Rank)
		case rec.Sample != nil:
			key = fmt.Sprintf("sample/%d", rec.Sample.Rank)
		case rec.Cross != nil && rec.Cross.Meta:
			key = fmt.Sprintf("cross/%d", rec.Cross.Src) // logged by the sender
		case rec.Cross != nil:
			key = fmt.Sprintf("cross/%d", rec.Cross.Dst)
		case rec.Send != nil:
			key = fmt.Sprintf("send/%d", rec.Send.Src)
		case rec.Output != nil:
			key = fmt.Sprintf("output/%d", rec.Output.Rank)
		}
		out[key] = append(out[key], line)
	}
	return out
}

func readGz(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeGz(t *testing.T, path string, data []byte) {
	t.Helper()
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenPropagationLogs(t *testing.T) {
	digestPath := filepath.Join("testdata", "graphs.sha256")
	digests := make(map[string]string)
	if !*update {
		raw, err := os.ReadFile(digestPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if app, sum, ok := strings.Cut(line, " "); ok {
				digests[app] = sum
			}
		}
	}
	for _, run := range goldenRuns {
		t.Run(run.app, func(t *testing.T) {
			res := goldenRun(t, run.app, run.n, run.seed)
			var log bytes.Buffer
			n, err := res.Trace.WriteTo(&log)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", run.app+".jsonl.gz")
			if *update {
				writeGz(t, path, log.Bytes())
				digests[run.app] = graphDigest(t, res)
				return
			}
			if n != int64(log.Len()) {
				t.Errorf("WriteTo returned %d, wrote %d bytes", n, log.Len())
			}
			want := readGz(t, path)
			if len(res.Terms) == 1 {
				if !bytes.Equal(log.Bytes(), want) {
					t.Errorf("log differs from %s (%d bytes, want %d)", path, log.Len(), len(want))
				}
			} else {
				got, ref := streams(t, log.Bytes()), streams(t, want)
				for key, lines := range ref {
					if g := got[key]; strings.Join(g, "\n") != strings.Join(lines, "\n") {
						t.Errorf("stream %s differs from %s (%d records, want %d)", key, path, len(g), len(lines))
					}
				}
				for key := range got {
					if _, ok := ref[key]; !ok {
						t.Errorf("stream %s is not in %s", key, path)
					}
				}
			}
			if got := graphDigest(t, res); got != digests[run.app] {
				t.Errorf("provenance graph digest %s, want %s", got, digests[run.app])
			}
		})
	}
	if *update {
		var sb strings.Builder
		for _, run := range goldenRuns {
			fmt.Fprintf(&sb, "%s %s\n", run.app, digests[run.app])
		}
		if err := os.WriteFile(digestPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
