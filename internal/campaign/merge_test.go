package campaign

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"chaser/internal/obs"
	"chaser/internal/wal"
)

// journalFrames splits a journal file into its frames (header record first),
// each with its 8-byte frame header.
func journalFrames(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for len(raw) > 0 {
		n := wal.HeaderSize + int(binary.LittleEndian.Uint32(raw))
		frames = append(frames, raw[:n])
		raw = raw[n:]
	}
	return frames
}

// runShard executes one shard window of cfg, journaling to path.
func runShard(t *testing.T, cfg Config, lo, hi int, path string) {
	t.Helper()
	cfg.Shard = &ShardRange{Lo: lo, Hi: hi}
	cfg.Journal = path
	if _, err := Run(cfg); err != nil {
		t.Fatalf("shard [%d,%d): %v", lo, hi, err)
	}
}

// TestMergeJournalsMatchesSingleProcess splits one campaign into three
// shard journals and merges them: the summary must be bitwise identical to
// the uninterrupted single-process campaign's.
func TestMergeJournalsMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	cfg := kmeansConfig(t)
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{
		filepath.Join(dir, "shard0.jsonl"),
		filepath.Join(dir, "shard1.jsonl"),
		filepath.Join(dir, "shard2.jsonl"),
	}
	runShard(t, cfg, 0, 5, paths[0])
	runShard(t, cfg, 5, 10, paths[1])
	runShard(t, cfg, 10, 15, paths[2])
	merged, err := MergeJournals(cfg, nil, paths...)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, full, merged)
}

// TestMergeJournalsDedupesOverlap merges journals with overlapping run
// windows — what re-enqueued shards leave behind when a dead worker's
// partial journal survives alongside the retry's complete one. Overlapping
// indices must be deduplicated (counted in campaign_runs_deduped_total),
// and the summary must still match the uninterrupted campaign exactly.
func TestMergeJournalsDedupesOverlap(t *testing.T) {
	dir := t.TempDir()
	cfg := kmeansConfig(t)
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	runShard(t, cfg, 0, 10, a)
	runShard(t, cfg, 5, 15, b) // runs 5-9 journaled twice
	reg := obs.NewRegistry()
	merged, err := MergeJournals(cfg, reg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, full, merged)
	if got := reg.Counter("campaign_runs_deduped_total").Value(); got != 5 {
		t.Errorf("campaign_runs_deduped_total = %d, want 5", got)
	}
}

// TestMergeJournalsMissingRunsFails refuses to summarize a campaign whose
// journals leave a hole in the run index space.
func TestMergeJournalsMissingRunsFails(t *testing.T) {
	dir := t.TempDir()
	cfg := kmeansConfig(t)
	a := filepath.Join(dir, "a.jsonl")
	runShard(t, cfg, 0, 10, a) // runs 10-14 never executed
	if _, err := MergeJournals(cfg, nil, a); err == nil {
		t.Fatal("merge of a partial campaign succeeded; want missing-runs error")
	}
}

// TestMergeJournalsRejectsForeignJournal refuses journals written by a
// different campaign configuration.
func TestMergeJournalsRejectsForeignJournal(t *testing.T) {
	dir := t.TempDir()
	cfg := kmeansConfig(t)
	a := filepath.Join(dir, "a.jsonl")
	runShard(t, cfg, 0, 15, a)
	other := cfg
	other.Seed++
	if _, err := MergeJournals(other, nil, a); err == nil {
		t.Fatal("merge accepted a journal from a different campaign")
	}
}

// TestResumeDedupesDuplicateEntries resumes from a journal whose entries
// repeat indices — what a worker that lost its lease but kept appending
// leaves behind. The duplicates must be dropped deterministically (first
// occurrence wins), counted in campaign_runs_deduped_total, and the
// resumed summary must still match the uninterrupted campaign exactly.
func TestResumeDedupesDuplicateEntries(t *testing.T) {
	dir := t.TempDir()
	cfg := kmeansConfig(t)
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run.jsonl")
	runShard(t, cfg, 0, 15, path)
	// Re-append the journal's last three entry records verbatim.
	frames := journalFrames(t, path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Join(frames[len(frames)-3:], nil)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	reg := obs.NewRegistry()
	cfg2 := cfg
	cfg2.Journal = path
	cfg2.Obs = reg
	res, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	summariesEqual(t, full, res)
	if got := reg.Counter("campaign_runs_deduped_total").Value(); got != 3 {
		t.Errorf("campaign_runs_deduped_total = %d, want 3", got)
	}
}
