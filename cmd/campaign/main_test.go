package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runExp(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return sb.String()
}

func TestTable1(t *testing.T) {
	out := runExp(t, "-experiment", "table1")
	for _, want := range []string{"Probabilistic", "Deterministic", "Group"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	out := runExp(t, "-experiment", "table2")
	for _, want := range []string{"Probabilistic Injector", "Deterministic Injector", "Group Injector", "LOC"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Small(t *testing.T) {
	out := runExp(t, "-experiment", "table3", "-runs", "40")
	for _, want := range []string{"OS Exceptions", "MPI error detected", "Slave Node failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Small(t *testing.T) {
	out := runExp(t, "-experiment", "fig6", "-runs", "15")
	for _, want := range []string{"bfs", "clamr", "kmeans", "lud", "matvec", "benign", "terminated"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestFig7(t *testing.T) {
	out := runExp(t, "-experiment", "fig7")
	if !strings.Contains(out, "tainted bytes") || !strings.Contains(out, "case 2") {
		t.Errorf("fig7 output incomplete:\n%s", out)
	}
}

func TestFig8Small(t *testing.T) {
	out := runExp(t, "-experiment", "fig8", "-runs", "15")
	for _, want := range []string{"Fig. 8", "Fig. 9", "read-heavy"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestFig10(t *testing.T) {
	out := runExp(t, "-experiment", "fig10")
	for _, want := range []string{"matvec", "clamr", "tracing overhead", "injection overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "zap"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestSweepSmall(t *testing.T) {
	out := runExp(t, "-experiment", "sweep", "-runs", "10")
	for _, want := range []string{"bits", "benign", "16"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestPerOpSmall(t *testing.T) {
	out := runExp(t, "-experiment", "perop", "-runs", "15")
	if !strings.Contains(out, "outcomes by injected opcode") {
		t.Errorf("missing header:\n%s", out)
	}
}

func TestJSONSmall(t *testing.T) {
	out := runExp(t, "-experiment", "json", "-runs", "5")
	dec := json.NewDecoder(strings.NewReader(out))
	apps := 0
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("bad json: %v", err)
		}
		apps++
	}
	if apps < 5 {
		t.Errorf("json summaries = %d", apps)
	}
}

func TestRunJournalAndResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	full := runExp(t, "-experiment", "run", "-app", "kmeans", "-runs", "12",
		"-seed", "77", "-journal", journal)
	if !strings.Contains(full, "benign") {
		t.Fatalf("no summary:\n%s", full)
	}
	// The same command again resumes from the complete journal: it
	// re-executes nothing and reprints the identical summary.
	resumed := runExp(t, "-experiment", "run", "-app", "kmeans", "-runs", "12",
		"-seed", "77", "-journal", journal)
	if resumed != full {
		t.Errorf("resumed summary differs:\n--- full ---\n%s--- resumed ---\n%s", full, resumed)
	}
}

func TestRunBadHubPolicy(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "run", "-hub-policy", "maybe"}, &sb); err == nil {
		t.Error("bad hub policy accepted")
	}
}

// TestFig6CSVDirCheckedFirst: a -csv directory that does not exist fails
// the experiment before any campaign runs, with nothing printed.
func TestFig6CSVDirCheckedFirst(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-experiment", "fig6", "-runs", "6", "-csv", filepath.Join(t.TempDir(), "missing")}, &sb)
	if err == nil || sb.Len() > 0 {
		t.Fatalf("fig6 with a missing -csv directory: %v, printed %q; want an error and no report", err, sb.String())
	}
}

func TestFig6CSVExport(t *testing.T) {
	dir := t.TempDir()
	out := runExp(t, "-experiment", "fig6", "-runs", "6", "-csv", dir)
	if !strings.Contains(out, "per-run outcomes written") {
		t.Errorf("no csv note:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "bfs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "outcome") || len(strings.Split(string(data), "\n")) < 7 {
		t.Errorf("csv content:\n%s", data)
	}
}
