// Command chaser runs one guest application under the Chaser fault-injection
// framework and reports the outcome, the injection record, and (with
// -trace) the fault-propagation summary and log.
//
// Examples:
//
//	chaser -list
//	chaser -app clamr -n 1000 -bits 1 -trace
//	chaser -app matvec -ops mov,ld,st -n 500 -rank 0 -trace -trace-out prop.jsonl
//	chaser -app kmeans -prob 0.0005
//	chaser -app lud -group 100:50 -count 5
//	chaser -app matvec -hub 127.0.0.1:7070 -n 200 -trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"chaser/internal/apps"
	"chaser/internal/core"
	"chaser/internal/isa"
	"chaser/internal/lang"
	"chaser/internal/obs"
	"chaser/internal/tainthub"
	"chaser/internal/tainthub/codec"
	"chaser/internal/trace"
)

// progName derives a process name from a source path (base without ext).
func progName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chaser:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chaser", flag.ContinueOnError)
	list := fs.Bool("list", false, "list available applications")
	appName := fs.String("app", "", "application to run (see -list)")
	progPath := fs.String("prog", "", "guest-language source file to run instead of a built-in app")
	world := fs.Int("world", 1, "world size for -prog")
	opsFlag := fs.String("ops", "", "comma-separated target opcodes (default: the app's paper targets)")
	detN := fs.Uint64("n", 0, "deterministic model: inject at the n-th execution")
	prob := fs.Float64("prob", 0, "probabilistic model: per-execution injection probability")
	group := fs.String("group", "", "group model: start:every")
	count := fs.Int("count", 1, "maximum number of injections")
	bits := fs.Int("bits", 1, "bits to flip per injection")
	rank := fs.Int("rank", -1, "target rank (-1 = app default)")
	seed := fs.Int64("seed", 1, "rng seed")
	traceOn := fs.Bool("trace", false, "enable fault propagation tracing")
	traceOut := fs.String("trace-out", "", "write the propagation log (JSON lines) to this file")
	spanTrace := fs.String("span-trace", "", "write a Chrome trace-event JSON of the run's spans to this file (chrome://tracing / Perfetto)")
	hubAddr := fs.String("hub", "", "TaintHub server address (default: in-process hub)")
	hubWire := fs.String("wire", "auto", "hub wire format: auto (binary) | json | binary")
	golden := fs.Bool("golden", false, "run without any injection")
	execTrace := fs.Int("exec-trace", 0, "record the last N instructions per rank and print them on a crash")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, app := range apps.All() {
			ops := make([]string, len(app.DefaultOps))
			for i, op := range app.DefaultOps {
				ops[i] = op.String()
			}
			fmt.Fprintf(out, "%-8s ranks=%d ops=%s  %s\n",
				app.Name, app.WorldSize, strings.Join(ops, ","), app.Description)
		}
		return nil
	}
	var app apps.App
	switch {
	case *progPath != "":
		src, err := os.ReadFile(*progPath)
		if err != nil {
			return err
		}
		prog, err := lang.ParseAndCompile(progName(*progPath), string(src))
		if err != nil {
			return err
		}
		app = apps.App{Name: prog.Name, Prog: prog, WorldSize: *world, TargetRank: -1}
		if *opsFlag == "" && !*golden {
			return fmt.Errorf("-prog needs -ops (or -golden)")
		}
	case *appName != "":
		var err error
		app, err = apps.ByName(*appName)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -app or -prog (or -list)")
	}

	cfg := core.RunConfig{Prog: app.Prog, WorldSize: app.WorldSize, ExecTraceDepth: *execTrace}
	var tracer *obs.Tracer
	if *spanTrace != "" {
		tracer = obs.NewTracer(0)
		cfg.Tracer = tracer
	}
	if *hubAddr != "" {
		wireFmt, err := codec.ParseFormat(*hubWire)
		if err != nil {
			return err
		}
		client, err := tainthub.DialConfig(*hubAddr, tainthub.ClientConfig{Wire: wireFmt})
		if err != nil {
			return err
		}
		defer client.Close()
		// The run publishes into namespace 0 and is its only reader: retire
		// it on the way out so the hub holds nothing of a finished run.
		defer func() {
			if err := client.Retire(0, 1); err != nil {
				fmt.Fprintln(os.Stderr, "chaser: retiring hub namespace:", err)
			}
		}()
		cfg.Hub = client
	}

	if !*golden {
		spec := &core.Spec{
			Target: app.Name,
			Ops:    app.DefaultOps,
			Bits:   *bits,
			Seed:   *seed,
			Trace:  *traceOn,
		}
		if *opsFlag != "" {
			spec.Ops = nil
			for _, name := range strings.Split(*opsFlag, ",") {
				op := isa.OpByName(strings.TrimSpace(name))
				if op == isa.OpInvalid {
					return fmt.Errorf("unknown opcode %q", name)
				}
				spec.Ops = append(spec.Ops, op)
			}
		}
		spec.TargetRank = app.TargetRank
		if *rank >= 0 {
			spec.TargetRank = *rank
		}
		if spec.TargetRank < 0 {
			spec.TargetRank = 0
		}
		spec.MaxInjections = *count
		switch {
		case *prob > 0:
			spec.Cond = core.Probabilistic{P: *prob}
		case *group != "":
			var start, every uint64
			if _, err := fmt.Sscanf(*group, "%d:%d", &start, &every); err != nil {
				return fmt.Errorf("bad -group %q (want start:every)", *group)
			}
			spec.Cond = core.Group{Start: start, Every: every}
		case *detN > 0:
			spec.Cond = core.Deterministic{N: *detN}
		default:
			return fmt.Errorf("pick an injection model: -n, -prob, or -group (or -golden)")
		}
		cfg.Spec = spec
	}

	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	if tracer != nil {
		f, err := os.Create(*spanTrace)
		if err != nil {
			return err
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "span trace written to %s (%d spans)\n", *spanTrace, tracer.Len())
	}
	for r, term := range res.Terms {
		fmt.Fprintf(out, "rank %d: %s (%d instructions)\n", r, term, res.Counters[r].Instructions)
		if term.Abnormal() && len(res.ExecTraces) > r && res.ExecTraces[r] != "" {
			fmt.Fprintf(out, "last instructions on rank %d:\n%s", r, res.ExecTraces[r])
		}
	}
	for _, rec := range res.Records {
		fmt.Fprintf(out, "injected: %s\n", rec)
	}
	if cfg.Spec != nil && !res.Injected() && !*golden {
		fmt.Fprintln(out, "no injection fired (condition never met)")
	}
	if *traceOn {
		if n := res.Trace.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr,
				"chaser: warning: %d propagation events exceeded the in-memory cap of %d and were not stored; the read, write and region counts below are exact, and -trace-out holds each rank's stored prefix\n",
				n, trace.DefaultMaxEvents)
		}
		fmt.Fprintf(out, "propagation: %d tainted reads, %d tainted writes, cross-rank=%v\n",
			res.Trace.TotalReads(), res.Trace.TotalWrites(), res.Trace.Propagated())
		for _, region := range []string{"heap", "stack", "data"} {
			if rc, ok := res.Trace.Regions()[region]; ok {
				fmt.Fprintf(out, "  %-5s %d tainted reads, %d tainted writes\n", region, rc.Reads, rc.Writes)
			}
		}
		for _, cr := range res.Trace.CrossRank() {
			fmt.Fprintf(out, "  tainted message rank %d -> rank %d (tag %d, %d tainted bytes)\n",
				cr.Src, cr.Dst, cr.Tag, cr.TaintedBytes)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			if _, err := res.Trace.WriteTo(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "propagation log written to %s (%d events)\n",
				*traceOut, res.Trace.Stored())
		}
	}
	return nil
}
