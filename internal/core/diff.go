package core

import (
	"cmp"
	"slices"
	"strings"
)

// Difference is one way two worlds differ (Diff).
type Difference struct {
	// Rank is the rank that differs, -1 for the world as a whole.
	Rank int
	// What names what differs. On a rank's machine: "mem" (its bytes),
	// "shadow" (their taint), "page" (a page one side lacks), "frame" (a
	// page's physical frame), "frames" (the next frame), "regions", "regs",
	// "shadow regs", "pc", "flags", "heap", "console", "output", "counters",
	// "tainted accesses", "term", "wait" (the MPI call it is suspended in) and
	// "taint" (tracking on); its injector's "exec count", "send seqs" and "recv seqs"; its MPI
	// state's "schedule", "call", "mailbox" and "pending". On the world:
	// "barrier", "timeline" (the taint samples so far), and "world" for
	// worlds of different programs or sizes.
	What string
	// Addr and Len are the guest bytes [Addr, Addr+Len) of a "mem",
	// "shadow", "page" or "frame" difference, and Region their region.
	Addr, Len uint64
	Region    string
}

// Diff returns every way worlds a and b differ, ordered by rank, what and
// address; none when a run from either would be the run from the other. It
// compares each rank's machine (vm.Snapshot.Compare: memory page pointer
// first, so two rungs of one chain cost the pages either side wrote since
// they parted; counters without the block statistics), taint shadow,
// injector resume state, the timeline samples and the MPI state. The site a
// world was captured at is not its state, and is not compared.
func Diff(a, b *WorldSnapshot) []Difference {
	ds, _ := diff(a, b)
	return ds
}

// diff is Diff, and the number of pages it compared byte by byte.
func diff(a, b *WorldSnapshot) (ds []Difference, compared int) {
	if a.prog != b.prog || a.worldSize != b.worldSize {
		return []Difference{{Rank: -1, What: "world"}}, 0
	}
	note := func(rank int, what string, differs bool) {
		if differs {
			ds = append(ds, Difference{Rank: rank, What: what})
		}
	}
	ra, rb := a.resume, b.resume
	for r := range a.machines {
		compared += a.machines[r].Compare(b.machines[r], func(what string, addr, n uint64, region string) {
			ds = append(ds, Difference{Rank: r, What: what, Addr: addr, Len: n, Region: region})
		})
		note(r, "exec count", ra.execCount[r] != rb.execCount[r])
		note(r, "send seqs", !slices.Equal(ra.sendSeq[r], rb.sendSeq[r]))
		note(r, "recv seqs", !slices.Equal(ra.recvSeq[r], rb.recvSeq[r]))
	}
	note(-1, "timeline", !slices.Equal(a.samples, b.samples))
	a.world.Compare(b.world, func(rank int, what string) { note(rank, what, true) })
	slices.SortStableFunc(ds, func(x, y Difference) int {
		return cmp.Or(cmp.Compare(x.Rank, y.Rank), strings.Compare(x.What, y.What), cmp.Compare(x.Addr, y.Addr))
	})
	return ds, compared
}
