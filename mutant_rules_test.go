package chaser

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// mutantRule plants a defect a test was once proved against: in the function
// Func of File (Type.Method for a method), the lines From become the lines
// To. The tests that Run selects in Package, built with Tags, must catch it.
// TestMutants runs them against each rule; TestMutantRules checks, without
// running them, that every rule still finds its site.
type mutantRule struct {
	Name, Mutant       string // the subtest's name; what the defect does
	File, Func         string
	From, To           string
	Package, Run, Tags string
}

var mutantRules = []mutantRule{{
	Name:   "appender-drops-write-tally",
	Mutant: "the appender's fast path drops a write's tally",
	File:   "internal/trace/trace.go", Func: "Appender.Attach",
	From: `
		if ev.Write {
			l.counts[i].Writes++
		} else {`,
	To:      `if !ev.Write {`,
	Package: "./internal/core", Run: "^TestAccessLogTalliesMatchCounters$",
}, {
	Name:   "attach-skips-syscall-hooks",
	Mutant: "a reset Chaser drops its bound syscall hooks, so a reused session's machines get no MPI hooks",
	File:   "internal/core/chaser.go", Func: "Chaser.reset",
	From: `
		preHook: c.preHook,
		postHook: c.postHook,`,
	Package: "./internal/core", Run: "^(TestSessionRunsMatchColdRuns|TestChaserResetIsNew)$",
}, {
	Name:   "campaign-ignores-sigint",
	Mutant: "campaign -experiment run never catches SIGINT, so an interrupt kills it instead of stopping it gracefully",
	File:   "cmd/campaign/main.go", Func: "runResumable",
	From:    `signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)`,
	Package: ".", Run: "^TestSmoke$/^Resume$", Tags: "smoke",
}, {
	Name:   "cancelled-send-keeps-hold",
	Mutant: "a send Stop cancels keeps the job's hold",
	File:   "internal/campaign/campaign.go", Func: "pool.feed",
	From:    `j.held.drop()`,
	Package: "./internal/campaign", Run: "^TestCacheGaugeReadsZeroWhenNoPoolRuns$",
}, {
	Name:   "chain-skips-dispatch-test",
	Mutant: "chaining follows an edge without the target block's dispatch test, so a block that reads taint can run on the taint-free copy",
	File:   "internal/vm/engine.go", Func: "execLoop",
	From: `
		if m.tainting(e.to.tb) != tainting {
			return node
		}`,
	Package: "./internal/vm", Run: "^TestFastPathSelection$/^live_shadow$/^seeded_between_chained_blocks$",
}, {
	Name:   "chaserd-drops-lease-ttl",
	Mutant: "chaserd drops -lease-ttl on its way into SchedConfig",
	File:   "cmd/chaserd/main.go", Func: "runServer",
	From:    `LeaseTTL: o.leaseTTL,`,
	Package: ".", Run: "^TestSmoke$/^ChaserdCrash$", Tags: "smoke",
}, {
	Name:   "compare-skips-frames",
	Mutant: "a snapshot comparison does not report a page that holds the same bytes in another physical frame",
	File:   "internal/vm/compare.go", Func: "Snapshot.Compare",
	From: `
		if p.frame != q.frame {
			diff("frame", ip.base, PageSize, region(ip.base))
		}`,
	Package: "./internal/vm", Run: "^TestCompareReportsFramesAndRegions$",
}, {
	Name:   "detach-before-last-pause",
	Mutant: "the injector detaches once its injections are spent, before its last pause",
	File:   "internal/core/chaser.go", Func: "armState.detachIfDone",
	From:    `if st.injected < st.spec.MaxInjections || len(st.pauses) > 0 {`,
	To:      `if st.injected < st.spec.MaxInjections {`,
	Package: "./internal/core", Run: "^TestResumedRunMatchesUnpaused$",
}, {
	Name:   "diff-trusts-pointers-across-bases",
	Mutant: "Compare matches pages by their position in the images, not by base, and trusts equal pointers across different bases",
	File:   "internal/vm/compare.go", Func: "Snapshot.Compare",
	From: `
		for _, ip := range s.mem.pages {
			p, q := ip.p, theirs[ip.base]`,
	To: `
		for i, ip := range s.mem.pages {
			var q *memPage
			if i < len(o.mem.pages) {
				q = o.mem.pages[i].p
			}
			p := ip.p`,
	Package: "./internal/core", Run: "^(TestDiffComparesOnlyWhatEitherRungWrote|TestDiffFindsAPlantedByte)$",
}, {
	Name:   "done-before-append",
	Mutant: "the scheduler marks a shard done before its done record is appended, so a done whose append failed counts as recorded and a failed last done leaves the campaign stuck",
	File:   "internal/server/sched.go", Func: "Scheduler.Complete",
	From: `
		if err := s.store.Append(walRecord{T: "done", C: c.id, Shard: sh.idx}); err != nil {
			sh.state = shardPending // not recorded, so not done: rerun from its journal
			s.mu.Unlock()
			return err
		}
		sh.state = shardDone`,
	To: `
		sh.state = shardDone
		if err := s.store.Append(walRecord{T: "done", C: c.id, Shard: sh.idx}); err != nil {
			s.mu.Unlock()
			return err
		}`,
	Package: "./internal/server", Run: "^TestControlPlaneSchedule$",
}, {
	Name:   "drain-skips-check",
	Mutant: "an early world's drain does not check the masks its receives applied against the hub's answers",
	File:   "internal/core/mpihooks.go", Func: "worldHub.drain",
	From: `
		for _, f := range w.applied {
			if !f.confirmed() {
				w.rechecked = true
				return
			}
		}`,
	Package: "./internal/core", Run: "^TestEarlyReceiveMatchesSync$",
}, {
	Name:   "hold-never-dropped",
	Mutant: "a worker that receives a job keeps its hold on the rung it forks from",
	File:   "internal/campaign/campaign.go", Func: "pool.next",
	From:    `j.held.drop()`,
	Package: "./internal/campaign", Run: "^TestCacheGaugeReadsZeroWhenNoPoolRuns$",
}, {
	Name:   "hub-forgets-wal",
	Mutant: "tainthub starts a fresh log instead of replaying -wal",
	File:   "cmd/tainthub/main.go", Func: "run",
	From: `d, err := tainthub.OpenDurable(*wal, tainthub.DurableConfig{Limits: lim, Obs: reg})`,
	To: `
		os.Remove(*wal)
		d, err := tainthub.OpenDurable(*wal, tainthub.DurableConfig{Limits: lim, Obs: reg})`,
	Package: ".", Run: "^TestSmoke$/^HubCrash$", Tags: "smoke",
}, {
	Name:   "kldd-writes-t0-taint",
	Mutant: "the fused KLdD writes T0's taint mask, so an address's taint is no longer inert",
	File:   "internal/vm/engine.go", Func: "execLoop",
	From:    `if tainting && op.A2 != tcg.T0 && sh.RegsTainted(op.Regs) {`,
	To:      `if tainting && sh.RegsTainted(op.Regs) {`,
	Package: "./internal/core", Run: "^TestAddressTaintIsInert$",
}, {
	Name:   "pause-skips-count-rewind",
	Mutant: "a pause keeps the count of the execution it stopped in front of, so the resumed world counts it twice",
	File:   "internal/core/chaser.go", Func: "armState.faultInjector",
	From:    `st.pauses, st.execCount = st.pauses[1:], st.execCount-1`,
	To:      `st.pauses, st.execCount = st.pauses[1:], st.execCount`,
	Package: "./internal/core", Run: "^TestResumedRunMatchesUnpaused$",
}, {
	Name:   "pin-uncharged",
	Mutant: "a pinned rung is not charged to its Baseline",
	File:   "internal/campaign/ladder.go", Func: "Baseline.spineRung",
	From:    `b.pinnedBytes.Add(ws.FreshBytes())`,
	Package: "./internal/campaign", Run: "^(TestCacheGaugeReadsZeroWhenNoPoolRuns|TestSpineIsLazy)$",
}, {
	Name:   "plan-skips-fallback-draw",
	Mutant: "the plan takes every load's memory coin as the word taking the fault, so it never draws the register an unmapped word falls back to",
	File:   "internal/core/inject.go", Func: "PlanOperandFault",
	From:    `return drawOperandFault(rankStream(seed, rank), bits, ins, nil)`,
	To:      `return drawOperandFault(rankStream(seed, rank), bits, ins, func(uint64) bool { return true })`,
	Package: "./internal/core", Run: "^TestPlanIsWhatTheInjectorDid$",
}, {
	Name:   "recheck-starts-new-flights",
	Mutant: "a recheck starts new flights for its tainted sends instead of taking the answers its first attempt recorded",
	File:   "internal/core/mpihooks.go", Func: "worldHub.start",
	From: `
		if a := w.answers[msg]; a != nil && bytes.Equal(a.masks, masks) {
			f.inflight = (*answered)(&a.res)
			w.unsettled = append(w.unsettled, f)
			return
		}`,
	Package: "./internal/core", Run: "^TestEarlyReceiveMatchesSync$",
}, {
	Name:   "recycle-fired-world",
	Mutant: "a recheck recycles the first attempt's world even when its watchdog fired",
	File:   "internal/core/session.go", Func: "session.run",
	From: `
		if quiet {
			s.recycle()`,
	To: `
		if true {
			s.recycle()`,
	Package: "./internal/core", Run: "^TestRecheckAfterWatchdog$",
}, {
	// One edit where the defect's patch made two: with flights never set,
	// the arm that refuses a pause at or after the trigger cannot fire.
	Name:   "refuse-skips-flights",
	Mutant: "refuse lets a pause at or after the trigger through over a hub that starts flights",
	File:   "internal/core/fork.go", Func: "refuse",
	From:    `_, flights := cfg.Hub.(tainthub.FlightStarter)`,
	To:      `flights := false`,
	Package: "./internal/core", Run: "^TestPauseAfterTriggerRefusedOverFlights$",
}, {
	Name:   "repeat-reads-own-slot",
	Mutant: "a repeat takes its outcome from its own walk's slot, not the first run's walk",
	File:   "internal/campaign/campaign.go", Func: "pool.settle",
	From:    `w.finish(rp.task, rp.first.w.outcomes[rp.first.idx], nil)`,
	To:      `w.finish(rp.task, rp.w.outcomes[rp.first.idx], nil)`,
	Package: "./internal/campaign", Run: "^TestBitSweepEntriesMatchRuns$",
}, {
	Name:   "repeats-key-without-bits",
	Mutant: "the repeats key leaves out the bit count, so entries of different bit counts share first runs",
	File:   "internal/campaign/repeat.go", Func: "repeats.of",
	From:    `key := core.PlanOperandFault(tk.seed, tk.rank, w.bits, ins)`,
	To:      `key := core.PlanOperandFault(tk.seed, tk.rank, 1, ins)`,
	Package: "./internal/campaign", Run: "^TestBitSweepEntriesMatchRuns$",
}, {
	Name:   "repeats-key-without-coin",
	Mutant: "the repeats key leaves out a load's coin, so a fault in the memory word and one in the register share a first run",
	File:   "internal/campaign/repeat.go", Func: "repeats.of",
	From: `key := core.PlanOperandFault(tk.seed, tk.rank, w.bits, ins)`,
	To: `
		key := core.PlanOperandFault(tk.seed, tk.rank, w.bits, ins)
		key.Mem = false`,
	Package: "./internal/campaign", Run: "^TestRepeatsMatchNoFork$",
}, {
	Name:   "reset-rebinds-syscall-hooks",
	Mutant: "reset binds the syscall hooks anew, two closures a run",
	File:   "internal/core/chaser.go", Func: "Chaser.reset",
	From: `
		preHook: c.preHook,
		postHook: c.postHook,`,
	To: `
		preHook: c.preSyscall,
		postHook: c.postSyscall,`,
	Package: "./internal/core", Run: "^(TestForkedRunAllocBudget|TestLentForkedRunAllocBudget)$",
}, {
	Name:   "resume-command-drops-bits",
	Mutant: "an interrupted campaign prints a resume command without its -bits, which the journal refuses",
	File:   "cmd/campaign/main.go", Func: "runResumable",
	From: `fmt.Fprintf(out, "resume with: campaign %s\n", strings.Join(o.args, " "))`,
	To: `
		fmt.Fprintf(out, "resume with: campaign -experiment run -app %s -runs %d -seed %d -journal %s\n",
			o.app, o.runs, o.seed, cfg.Journal)`,
	Package: ".", Run: "^TestSmoke$/^Resume$", Tags: "smoke",
}, {
	Name:   "resume-stays-early",
	Mutant: "a resumed leg keeps the first attempt's early receives, which apply published masks without waiting for the hub",
	File:   "internal/core/session.go", Func: "Loan.resume",
	From:    `s.ch.view.early = false`,
	Package: "./internal/core", Run: "^TestResumedLegWaitsOverFlights$",
}, {
	Name:   "return-after-watchdog",
	Mutant: "a returned loan hands its session back to the pool even when the run's watchdog fired",
	File:   "internal/core/session.go", Func: "Loan.Return",
	From: `
		if l.quiet {
			l.s.release()
		}`,
	To:      `l.s.release()`,
	Package: "./internal/core", Run: "^TestLoanHeldSnapshot$",
}, {
	Name:   "shadow-compare-one-sided",
	Mutant: "a shadow comparison skips the pages only the second shadow holds",
	File:   "internal/taint/taint.go", Func: "Compare",
	From: `
		for base, q := range b.pages {
			if a.pages[base] == nil {
				runs(&cleanPage.masks, &q.masks, base, mem)
			}
		}`,
	Package: "./internal/core", Run: "^TestDiffFindsAPlantedByte$",
}, {
	Name:   "store-keeps-inode",
	Mutant: "chaserd's store opens an existing log in place (wal.Open) instead of replacing it, so a deposed leader's descriptor still reaches the new leader's log",
	File:   "internal/server/store.go", Func: "OpenStore",
	From: `
		if err == nil {
			recs = compactRecords(recs)`,
	To: `
		if err == nil && existed {
			s.log, err = wal.Open(s.walPath(), s.walOptions(), func([]byte) error { return nil })
			s.seq = len(recs)
		} else if err == nil {
			recs = compactRecords(recs)`,
	Package: "./internal/server", Run: "^TestDeposedLeaderCannotReachSharedLog$",
}, {
	Name:   "validate-skips-epoch",
	Mutant: "Fencer.Validate checks only the lease expiry in the fence file, not its holder and epoch, so a deposed leader with a frozen clock still passes its append guard",
	File:   "internal/server/failover.go", Func: "Fencer.Validate",
	From:    `return f.holding(func(cur fenceDoc) (*fenceDoc, error) {`,
	To:      `return f.withFence(func(cur fenceDoc) (*fenceDoc, error) {`,
	Package: "./internal/server", Run: "^TestControlPlaneSchedule$",
}, {
	Name:   "world-resume-stays-paused",
	Mutant: "a resumed world keeps its paused mark",
	File:   "internal/mpi/mpi.go", Func: "World.Resume",
	From:    `w.paused = false`,
	Package: "./internal/core", Run: "^TestResumedRunMatchesUnpaused$",
}}

// apply returns File's source, gofmt'd, with the defect planted. From must
// match exactly one run of consecutive lines in Func. Lines compare with
// their runs of blanks collapsed, and blank and comment-only lines are
// skipped, in From and in Func alike; the run, comment lines inside it too,
// becomes To.
func (r mutantRule) apply() ([]byte, error) {
	src, err := os.ReadFile(r.File)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, r.File, src, 0)
	if err != nil {
		return nil, err
	}
	i := slices.IndexFunc(f.Decls, func(d ast.Decl) bool {
		fn, ok := d.(*ast.FuncDecl)
		return ok && funcName(fn) == r.Func
	})
	if i < 0 {
		return nil, fmt.Errorf("%s: no func %s in %s", r.Name, r.Func, r.File)
	}
	lines := strings.Split(string(src), "\n")
	var code []int // the lines of Func that hold code, 0-based
	for n := fset.Position(f.Decls[i].Pos()).Line - 1; n < fset.Position(f.Decls[i].End()).Line; n++ {
		if len(codeLines(lines[n])) > 0 {
			code = append(code, n)
		}
	}
	from := codeLines(r.From)
	var sites []int
	for s := 0; len(from) > 0 && s+len(from) <= len(code); s++ {
		if slices.EqualFunc(code[s:s+len(from)], from, func(n int, l string) bool { return codeLines(lines[n])[0] == l }) {
			sites = append(sites, s)
		}
	}
	if len(sites) != 1 {
		return nil, fmt.Errorf("%s: From matches %d sites in %s, not one", r.Name, len(sites), r.Func)
	}
	first, last := code[sites[0]], code[sites[0]+len(from)-1]
	out := slices.Concat(lines[:first], codeLines(r.To), lines[last+1:])
	mutated, err := format.Source([]byte(strings.Join(out, "\n")))
	if err != nil {
		return nil, fmt.Errorf("%s: the mutated %s does not parse: %v", r.Name, r.File, err)
	}
	return mutated, nil
}

// codeLines returns s's lines that hold code, each with its runs of blanks
// collapsed to one space.
func codeLines(s string) []string {
	var code []string
	for _, l := range strings.Split(s, "\n") {
		if l = strings.Join(strings.Fields(l), " "); l != "" && !strings.HasPrefix(l, "//") {
			code = append(code, l)
		}
	}
	return code
}

// funcName names a function as a rule does: Name, or Type.Name for a method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	return t.(*ast.Ident).Name + "." + fn.Name.Name
}

// TestMutantRules checks the rules without running their tests: each
// finds its one site and plants a defect that parses, the top level of its
// Run pattern selects a test of its Package (build tags aside), and no two
// share a name.
func TestMutantRules(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range mutantRules {
		if seen[r.Name] {
			t.Errorf("%s: two rules have this name", r.Name)
		}
		seen[r.Name] = true
		if _, err := r.apply(); err != nil {
			t.Error(err)
		}
		top, _, _ := strings.Cut(r.Run, "/")
		if !slices.ContainsFunc(testFuncs(t, r.Package), regexp.MustCompile(top).MatchString) {
			t.Errorf("%s: Run %s selects no test of %s", r.Name, r.Run, r.Package)
		}
	}
	// A From that matches twice, or nowhere, names the rule and the count.
	for from, n := range map[string]int{"t.Fatal(err)": 2, "t.Fatal(nil)": 0} {
		r := mutantRule{Name: "planted", File: "mutant_rules_test.go", Func: "testFuncs", From: from}
		if _, err := r.apply(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("planted: From matches %d sites", n)) {
			t.Errorf("From %q: %v", from, err)
		}
	}
}

// testFuncs returns the names of the Test functions in dir's test files,
// whatever their build tags.
func testFuncs(t *testing.T, dir string) []string {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
