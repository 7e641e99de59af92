package vm

import "chaser/internal/isa"

// opMetricNames precomputes the per-opcode counter names so the end-of-run
// flush never builds strings (flushObs runs inside the whole-run allocation
// budget guarded by TestObsDisabledNoAlloc).
var opMetricNames = func() [isa.NumOps]string {
	var names [isa.NumOps]string
	for op := 1; op < isa.NumOps; op++ {
		names[op] = "vm_op_" + isa.Op(op).String() + "_executions_total"
	}
	return names
}()

// flushObs publishes the machine's end-of-run execution statistics into the
// attached registry. The interpreter hot loop already maintains Counters, so
// telemetry costs one registry flush per run instead of one atomic op per
// instruction. Counters accumulate across machines: campaign workers share
// one registry, so values are added, never set.
func (m *Machine) flushObs() {
	if m.term != nil {
		m.events.Emit("rank_term", -1, m.Rank,
			uint64(m.term.Reason), m.counters.Instructions, m.term.Reason.String())
	}
	reg := m.obsReg
	if reg == nil || m.obsFlushed {
		return
	}
	m.obsFlushed = true

	m.flushPerOp()
	c := m.counters
	if b := m.forkBase; b != nil {
		// A forked machine inherited the prefix's counts, and the machine
		// that executed the prefix has published them already.
		c.Instructions -= b.Instructions
		c.TBsExecuted -= b.TBsExecuted
		c.ChainedTBs -= b.ChainedTBs
		c.FastPathTBs -= b.FastPathTBs
		c.Syscalls -= b.Syscalls
		c.TaintedMemReads -= b.TaintedMemReads
		c.TaintedMemWrites -= b.TaintedMemWrites
		for op := 1; op < isa.NumOps; op++ {
			c.PerOp[op] -= b.PerOp[op]
		}
	}
	reg.Counter("vm_instructions_total").Add(c.Instructions)
	reg.Counter("vm_tb_executed_total").Add(c.TBsExecuted)
	reg.Counter("vm_tb_chained_total").Add(c.ChainedTBs)
	reg.Counter("vm_fastpath_tbs_total").Add(c.FastPathTBs)
	reg.Counter("vm_syscalls_total").Add(c.Syscalls)
	reg.Counter("vm_cow_page_copies_total").Add(m.Mem.CowCopies())
	reg.Counter("vm_tainted_mem_reads_total").Add(c.TaintedMemReads)
	reg.Counter("vm_tainted_mem_writes_total").Add(c.TaintedMemWrites)
	if m.term != nil && m.term.Reason == ReasonSignal {
		reg.Counter("vm_signals_total").Inc()
	}
	// The per-opcode execution histogram (tcg.TB.OpCounts folded into
	// Counters.PerOp). The registry has no label dimension, so each opcode
	// gets its own counter; mnemonics are lowercase alphanumerics, so the
	// names are valid in both exposition formats.
	for op := 1; op < isa.NumOps; op++ {
		if n := c.PerOp[op]; n > 0 {
			reg.Counter(opMetricNames[op]).Add(n)
		}
	}

	ts := m.Trans.Stats()
	reg.Counter("tcg_translations_total").Add(ts.Translations)
	reg.Counter("tcg_cache_hits_total").Add(ts.CacheHits)
	reg.Counter("tcg_cache_misses_total").Add(ts.CacheMisses)
	reg.Counter("tcg_base_hits_total").Add(ts.BaseHits)
	reg.Counter("tcg_base_misses_total").Add(ts.BaseMisses)
	reg.Counter("tcg_instrumented_blocks_total").Add(ts.InstrumentedBlocks)
	reg.Counter("tcg_flushes_total").Add(ts.Flushes)
	reg.Counter("tcg_helper_ops_total").Add(ts.HelperOps)
	reg.Counter("tcg_opt_rewrites_total").Add(ts.OptRewrites)
	reg.Counter("tcg_fused_ops_total").Add(ts.FusedOps)
	reg.Counter("tcg_ops_emitted_total").Add(ts.OpsEmitted)
	reg.Gauge("tcg_overlay_blocks_high_water").SetMax(float64(ts.OverlayBlocks))

	reg.Gauge("taint_tainted_bytes_high_water").SetMax(float64(m.Shadow.HighWater()))
}
