package vm

import (
	"bytes"
	"slices"

	"chaser/internal/taint"
)

// Compare reports to diff each way the machine s captured differs from the
// one o captured: what differs and, for the bytes of a page ("mem"), their
// taint ("shadow"), a page one side lacks ("page") or a page's physical frame
// ("frame"), the guest bytes [addr, addr+n) and their region. Pages are
// matched by base and compared pointer first: a page neither machine wrote
// since a snapshot both descend from is one sealed page, and costs nothing.
// Compare returns the number of pages it compared byte by byte. Counters
// ("counters") leave out the block statistics (TBsExecuted, ChainedTBs,
// FastPathTBs), which depend on block boundaries and chain-table warmth, not
// on the guest, and the tainted accesses, which are compared apart.
func (s *Snapshot) Compare(o *Snapshot, diff func(what string, addr, n uint64, region string)) (compared int) {
	note := func(what string, differs bool) {
		if differs {
			diff(what, 0, 0, "")
		}
	}
	note("regs", s.regs != o.regs)
	note("pc", s.pc != o.pc)
	note("flags", s.flags != o.flags)
	note("heap", s.heapBrk != o.heapBrk)
	note("console", !bytes.Equal(s.console, o.console))
	note("output", !bytes.Equal(s.output, o.output))
	note("counters", guestCounters(s.counters) != guestCounters(o.counters))
	note("tainted accesses", s.counters.TaintedMemReads != o.counters.TaintedMemReads ||
		s.counters.TaintedMemWrites != o.counters.TaintedMemWrites)
	note("term", (s.term == nil) != (o.term == nil) || s.term != nil && *s.term != *o.term)
	note("wait", s.waitingIn != o.waitingIn || s.waitPC != o.waitPC)
	note("taint", s.taintOn != o.taintOn)
	note("regions", !slices.Equal(s.mem.regions, o.mem.regions))
	note("frames", s.mem.nextFrame != o.mem.nextFrame)

	region := s.mem.regionName
	theirs := make(map[uint64]*memPage, len(o.mem.pages))
	for _, ip := range o.mem.pages {
		theirs[ip.base] = ip.p
	}
	for _, ip := range s.mem.pages {
		p, q := ip.p, theirs[ip.base]
		delete(theirs, ip.base)
		switch {
		case q == nil:
			diff("page", ip.base, PageSize, region(ip.base))
		case p == q:
		default:
			compared++
			if p.frame != q.frame {
				diff("frame", ip.base, PageSize, region(ip.base))
			}
			for i := 0; p.data != q.data && i < PageSize; i++ {
				if p.data[i] == q.data[i] {
					continue
				}
				j := i + 1
				for j < PageSize && p.data[j] != q.data[j] {
					j++
				}
				diff("mem", ip.base+uint64(i), uint64(j-i), region(ip.base+uint64(i)))
				i = j
			}
		}
	}
	for base := range theirs {
		diff("page", base, PageSize, o.mem.regionName(base))
	}
	regs := taint.Compare(s.shadow, o.shadow, func(addr, n uint64) { diff("shadow", addr, n, region(addr)) })
	note("shadow regs", regs != 0)
	return compared
}

// guestCounters returns c without its block statistics and tainted accesses.
func guestCounters(c Counters) Counters {
	c.TBsExecuted, c.ChainedTBs, c.FastPathTBs, c.TaintedMemReads, c.TaintedMemWrites = 0, 0, 0, 0, 0
	return c
}

// regionName is Memory.RegionName in the image.
func (img *MemImage) regionName(addr uint64) string {
	for _, r := range img.regions {
		if r.contains(addr) {
			return r.name
		}
	}
	return ""
}
