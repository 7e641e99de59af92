package mpi

// The baton. Exactly one rank of a world runs at any moment: the
// lowest-numbered rank that can. It keeps the baton until it ends, has to
// wait in MPI (a send into a full mailbox, a receive nothing queued matches,
// a barrier the others have not reached), or finishes an MPI call that let a
// lower-numbered rank go on; the baton then goes, again, to the lowest rank
// that can run. Who runs next is therefore a function of the world's state —
// machines, queues, barrier — and of nothing else: not of time, not of the Go
// scheduler, and not of who held the baton before, which is why a world
// restored from a snapshot (every rank back where the schedule left it, a
// suspended one inside its call) goes on exactly as the world it was taken
// from would have.
//
// Holding the baton is being the machine World.Run is executing: a rank that
// steps aside suspends its machine inside the MPI call (vm.ErrWait) or after
// it (vm.Machine.Yield), its RunSlice returns, and Run calls the next rank's.
// There is one goroutine, the caller's, and everything the ranks share is
// plain data.
//
// A waiting rank is made runnable by the operation that satisfies it (the
// matching delivery, the receive that makes room, the last arrival at the
// barrier) or by the world stopping, so "no rank can run and not all are
// done" is a deadlock, found the moment it is so.
//
// A fork-point pause is where the baton stops: the target's machine pauses,
// Run hands the baton to no one, and the world is kept as it stands (State).
// While a rank holds the baton outside an MPI call no lower rank can run — a
// call that makes one runnable ends its slice — so the lowest runnable rank of
// the restored world is the target, and it goes on first, as it would have.

// status is a rank's place in the schedule.
type status uint8

const (
	runnable    status = iota // not started, or suspended with nothing left to wait for
	waitRecv                  // suspended until a message from wantSrc with wantTag is delivered
	waitSend                  // suspended until waitDst's mailbox has room
	waitBarrier               // suspended until the barrier generation completes
	done
)

// place is a rank's place in the schedule: its status and what a waiting rank
// waits for, wantSrc/wantTag (waitRecv: a message to match) or waitDst
// (waitSend: room in that rank's mailbox).
type place struct {
	status           status
	wantSrc, wantTag int
	waitDst          int
}

// next returns the rank the baton goes to — the lowest that can run — or nil
// when every rank is done. If none can run and some are not done the world
// is deadlocked: that stops it, which makes every waiting rank runnable to
// fail its call.
func (w *World) next() *rankState {
	live := false
	for r := range w.ranks {
		rs := &w.ranks[r]
		if rs.status == runnable {
			return rs
		}
		live = live || rs.status != done
	}
	if live {
		w.deadlock()
		return w.next()
	}
	return nil
}

// lowerRunnable reports whether a rank below id can run: the MPI call rank id
// just completed made it so, and id steps aside.
func (w *World) lowerRunnable(id int) bool {
	for r := 0; r < id; r++ {
		if w.ranks[r].status == runnable {
			return true
		}
	}
	return false
}
