//go:build mutants

package chaser

import (
	"bufio"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutants is the mutant gate: each testdata/mutants/*.patch plants a
// defect a test was once proved against, and the gate keeps that proof. A
// patch is a unified diff against the module root behind a header that names
// the defect, the package and the -run pattern of the tests that must catch
// it, and optionally the build tags those tests need:
//
//	Mutant: what the defect does
//	Package: ./internal/campaign
//	Run: ^TestCacheGaugeReadsZeroWhenNoPoolRuns$
//	Tags: smoke
//
// For each patch the gate copies the module into a temporary directory,
// applies the patch with git apply and runs the named tests with -count=1.
// A mutant passes only when they fail; a patch that no longer applies fails
// the gate. It is behind the mutants build tag, so go test ./... does not run
// it:
//
//	go test -tags mutants -run TestMutants -timeout 15m .
func TestMutants(t *testing.T) {
	patches, err := filepath.Glob("testdata/mutants/*.patch")
	if err != nil || len(patches) == 0 {
		t.Fatalf("no mutants in testdata/mutants: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, patch := range patches {
		patch := filepath.Join(root, patch)
		t.Run(strings.TrimSuffix(filepath.Base(patch), ".patch"), func(t *testing.T) {
			t.Parallel()
			hdr := mutantHeader(t, patch)
			dir := t.TempDir()
			copyModule(t, root, dir)
			if out, err := inDir(dir, "git", "apply", patch); err != nil {
				t.Fatalf("the patch no longer applies: %v\n%s", err, out)
			}
			args := []string{"test", "-count=1", "-tags", hdr["Tags"], "-run", hdr["Run"], hdr["Package"]}
			out, err := inDir(dir, "go", args...)
			if err == nil || !strings.Contains(out, "--- FAIL") {
				t.Errorf("mutant survived: %s\ngo %s: %v\n%s", hdr["Mutant"], strings.Join(args, " "), err, out)
			}
		})
	}
}

// mutantHeader reads the "Key: value" lines ahead of a patch's diff.
func mutantHeader(t *testing.T, patch string) map[string]string {
	f, err := os.Open(patch)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan() && !strings.HasPrefix(sc.Text(), "diff "); {
		if k, v, ok := strings.Cut(sc.Text(), ": "); ok {
			hdr[k] = v
		}
	}
	for _, k := range []string{"Mutant", "Package", "Run"} {
		if hdr[k] == "" {
			t.Fatalf("%s: no %s line in the header", patch, k)
		}
	}
	return hdr
}

// copyModule copies the module's files from root into dir, leaving out the
// dot directories (.git, the benchmark's build tree).
func copyModule(t *testing.T, root, dir string) {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// inDir runs a command in dir and returns its combined output.
func inDir(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}
