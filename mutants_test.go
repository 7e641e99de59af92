//go:build mutants

package chaser

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutants is the mutant gate: each of mutantRules plants a defect a test
// was once proved against, and the gate keeps that proof. A rule names the
// file and the function of the defect's site, the lines to find there and
// the lines that replace them, and the package, the -run pattern and the
// optional build tags of the tests that must catch it. TestMutantRules, in
// tier 1, checks that every rule still finds its one site.
//
// For each rule the gate writes the mutated file to a temporary directory
// and runs the named tests with -count=1 in the module itself, with the file
// swapped in by GOFLAGS=-overlay, which also reaches the go build that
// TestSmoke runs. A mutant passes only when they fail; one that does not
// build fails the gate with the compiler's output. It is behind the mutants
// build tag, so go test ./... does not run it:
//
//	go test -tags mutants -run TestMutants -timeout 15m .
//
// Adding a mutant is appending a rule, checking it with TestMutantRules and
// running the gate.
func TestMutants(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mutantRules {
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			src, err := r.apply()
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			mutated, overlay := filepath.Join(dir, filepath.Base(r.File)), filepath.Join(dir, "overlay.json")
			js, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(root, r.File): mutated}})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(mutated, src, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(overlay, js, 0o644); err != nil {
				t.Fatal(err)
			}
			env := append(os.Environ(), "GOFLAGS=-overlay="+overlay)
			if out, err := goCmd(env, "build", "-o", os.DevNull, "./"+filepath.Dir(r.File)); err != nil {
				t.Fatalf("the mutant does not build: %v\n%s", err, out)
			}
			args := []string{"test", "-count=1", "-tags", r.Tags, "-run", r.Run, r.Package}
			out, err := goCmd(env, args...)
			if err == nil || !strings.Contains(out, "--- FAIL") {
				t.Errorf("mutant survived: %s\ngo %s: %v\n%s", r.Mutant, strings.Join(args, " "), err, out)
			}
		})
	}
}

// goCmd runs the go command in the module root with env and returns its
// combined output.
func goCmd(env []string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Env = env
	out, err := cmd.CombinedOutput()
	return string(out), err
}
