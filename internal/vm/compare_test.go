package vm

import (
	"testing"

	"chaser/internal/apps"
)

// TestCompareCountsPagesWhosePointersDiffer: along a chain of snapshots of a
// lud machine, taken at 31 cuts of its run as a campaign's spine takes them,
// Compare of two adjacent snapshots compares byte by byte exactly the pages
// both hold under different pointers — no more than the later snapshot's
// fresh pages — and finds no difference in a snapshot against itself.
func TestCompareCountsPagesWhosePointersDiffer(t *testing.T) {
	app, err := apps.ByName("lud")
	if err != nil {
		t.Fatal(err)
	}
	golden := New(app.Prog, Config{})
	if term := golden.Run(); term.Reason != ReasonExited {
		t.Fatalf("golden run: %s", term)
	}
	total := golden.Instructions()
	m := New(app.Prog, Config{})
	var prev *Snapshot
	all, fresh := 0, 0
	for k := uint64(1); k < 32; k++ {
		for m.Terminated() == nil && m.Instructions() < k*total/32 {
			m.Step()
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := snap.Compare(snap, func(what string, addr, n uint64, region string) {
			t.Errorf("cut %d against itself: %s [%#x,+%d) %s", k, what, addr, n, region)
		}); got != 0 {
			t.Errorf("cut %d against itself compared %d pages", k, got)
		}
		if prev != nil {
			theirs := map[uint64]*memPage{}
			for _, ip := range prev.mem.pages {
				theirs[ip.base] = ip.p
			}
			want := 0
			for _, ip := range snap.mem.pages {
				if p := theirs[ip.base]; p != nil && p != ip.p {
					want++
				}
			}
			got := prev.Compare(snap, func(string, uint64, uint64, string) {})
			if got != want || got > int(snap.mem.fresh) {
				t.Errorf("cuts %d-%d: compared %d pages; %d differ in pointer, %d fresh", k-1, k, got, want, snap.mem.fresh)
			}
			all, fresh = all+got, fresh+int(snap.mem.fresh)
		}
		prev = snap
	}
	t.Logf("31 cuts: %d pages compared byte by byte, %d fresh", all, fresh)
	if all == 0 {
		t.Error("no page was written between cuts: the count shows nothing")
	}
}

// TestCompareReportsFramesAndRegions: a page at the same base with the same
// bytes but another physical frame, another next frame and another region
// list are each reported, as exactly that.
func TestCompareReportsFramesAndRegions(t *testing.T) {
	app, err := apps.ByName("lud")
	if err != nil {
		t.Fatal(err)
	}
	m := New(app.Prog, Config{})
	for i := 0; i < 200 && m.Terminated() == nil; i++ {
		m.Step()
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	img := *snap.mem
	img.pages = append([]imagePage(nil), img.pages...)
	moved := *img.pages[0].p
	moved.frame += 1000
	img.pages[0].p = &moved
	img.nextFrame++
	img.regions = append(append([]region(nil), img.regions...), region{name: "extra", base: 1 << 40, size: PageSize})
	other := *snap
	other.mem = &img
	type found struct {
		what   string
		addr   uint64
		region string
	}
	var got []found
	snap.Compare(&other, func(what string, addr, n uint64, region string) { got = append(got, found{what, addr, region}) })
	base := img.pages[0].base
	want := []found{{"regions", 0, ""}, {"frames", 0, ""}, {"frame", base, snap.mem.regionName(base)}}
	if len(got) != len(want) {
		t.Fatalf("Compare reported %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Compare reported %v, want %v", got, want)
		}
	}
}
