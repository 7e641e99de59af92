// Command bench is the repository's one benchmark: how long from campaign
// submit to merged report, and where that time goes, on four named
// workloads. See README.md beside this file.
//
//	go run ./bench                         every workload: 5 repetitions + 1 traced, JSON on stdout
//	go run ./bench -workload W -trace 0    one untraced repetition, the contract's result line
//	go run ./bench -workload W -trace 1    one traced repetition (per-layer metrics)
//	go run ./bench -check                  two sets back to back must agree within the bounds
package main

import (
	"flag"
	"fmt"
	"os"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all)")
	seed := fs.Int64("seed", 20200355, "seed the workloads' inputs derive from")
	seconds := fs.Float64("seconds", defaultSeconds, "how long one repetition measures")
	trace := fs.String("trace", "", "0 or 1: run one repetition of -workload, untraced or traced, and print the contract's result line")
	reps := fs.Int("reps", 5, "untraced repetitions per workload (seeds seed, seed+1, ...)")
	check := fs.Bool("check", false, "run two sets back to back and fail unless they agree within the bounds")
	traceOut := fs.String("trace-out", "", "write the traced repetition's spans here as Chrome-trace JSON")
	workdir := fs.String("workdir", ".bench_build/work", "where repetitions keep their WALs and journals")
	child := fs.String("child", "", "internal: run as a repetition's child process (run or setup)")
	dir := fs.String("dir", "", "internal: the child's directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}

	switch {
	case *child != "":
		if *name == "" || *dir == "" {
			return fmt.Errorf("-child needs -workload and -dir")
		}
		return childMain(childOpts{
			workload: selected[0], sz: fullSizes, seed: *seed, seconds: *seconds,
			traced: *trace == "1", setup: *child == "setup", dir: *dir, traceOut: *traceOut,
		})

	case *trace != "":
		if *name == "" {
			return fmt.Errorf("-trace needs -workload")
		}
		if *trace != "0" && *trace != "1" {
			return fmt.Errorf("-trace is 0 or 1, not %q", *trace)
		}
		res, err := runOnce(execLauncher, runSpec{
			workload: selected[0], sz: fullSizes, seed: *seed, seconds: *seconds,
			traced: *trace == "1", workdir: *workdir, traceOut: *traceOut,
		})
		if err != nil {
			return err
		}
		if res.Traced {
			writeTraced(os.Stderr, res)
		}
		line, err := contractLine(res)
		if err != nil {
			return err
		}
		_, err = fmt.Printf("%s\n", line)
		return err
	}

	o := setOpts{
		workloads: selected, sz: fullSizes, seed: *seed, seconds: *seconds,
		reps: *reps, workdir: *workdir, traceOut: *traceOut,
	}
	if o.reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	first, err := runSet(execLauncher, o, os.Stderr)
	if err != nil {
		return err
	}
	if !*check {
		writeTables(os.Stderr, first)
		return writeJSON(os.Stdout, o, first)
	}
	second, err := runSet(execLauncher, o, os.Stderr)
	if err != nil {
		return err
	}
	if bad := compareSets(os.Stdout, selected, first, second); len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "bench: -check:", b)
		}
		return fmt.Errorf("-check: the two sets disagree on %d metrics", len(bad))
	}
	fmt.Println("\nbench: -check: the two sets agree within every bound, and every exact count is equal")
	return nil
}
