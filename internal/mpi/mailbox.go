package mpi

import "sync"

// mailboxCap bounds per-rank in-flight messages (eager-send buffering): a
// send to a rank already holding this many undelivered messages blocks until
// the rank receives one.
const mailboxCap = 1024

// mailbox is one rank's queue of delivered, not yet received messages. It is
// a FIFO ring that holds storage for the messages actually in flight: empty
// until the first delivery — a rank nobody sends to, every serial guest's,
// allocates nothing — then doubling up to mailboxCap slots, so a halo
// exchange that keeps a handful of messages in flight settles on a ring of
// eight and delivers without allocating.
//
// Any rank may put; only the owning rank takes. Waiters are woken by the
// opposite operation and by stop, which the world calls when it stops early.
type mailbox struct {
	mu      sync.Mutex
	ring    []Message // len(ring) is the capacity
	head    int       // index of the oldest message
	n       int       // messages queued
	avail   sync.Cond // the owner waits here for a delivery
	space   sync.Cond // senders wait here while the ring is full at mailboxCap
	full    int       // senders waiting on space
	stopped bool      // the world stopped: nobody waits any more
}

func (mb *mailbox) init() {
	mb.avail.L = &mb.mu
	mb.space.L = &mb.mu
}

// load preloads the queue, oldest first (restoring a paused world).
func (mb *mailbox) load(msgs []Message) {
	if len(msgs) > 0 {
		mb.ring = append([]Message(nil), msgs...)
		mb.n = len(msgs)
	}
}

// push appends msg if there is room, growing the ring when it is full below
// mailboxCap. The caller holds mu.
func (mb *mailbox) push(msg *Message) bool {
	if mb.n == len(mb.ring) {
		if mb.n >= mailboxCap {
			return false
		}
		grown := make([]Message, min(max(4, 2*mb.n), mailboxCap))
		k := copy(grown, mb.ring[mb.head:])
		copy(grown[k:], mb.ring[:mb.head])
		mb.ring, mb.head = grown, 0
	}
	mb.ring[(mb.head+mb.n)%len(mb.ring)] = *msg
	mb.n++
	return true
}

// tryPut delivers msg unless the mailbox is full.
func (mb *mailbox) tryPut(msg *Message) bool {
	mb.mu.Lock()
	ok := mb.push(msg)
	mb.mu.Unlock()
	if ok {
		mb.avail.Signal()
	}
	return ok
}

// put delivers msg, waiting for room while the mailbox is full. It returns
// false, delivering nothing, if the world stops first.
func (mb *mailbox) put(msg *Message) bool {
	mb.mu.Lock()
	for !mb.push(msg) {
		if mb.stopped {
			mb.mu.Unlock()
			return false
		}
		mb.full++
		mb.space.Wait()
		mb.full--
	}
	mb.mu.Unlock()
	mb.avail.Signal()
	return true
}

// pop removes the oldest message. The caller holds mu and has seen n > 0.
func (mb *mailbox) pop() Message {
	msg := mb.ring[mb.head]
	mb.ring[mb.head] = Message{} // drop the payload reference
	mb.head = (mb.head + 1) % len(mb.ring)
	mb.n--
	if mb.full > 0 {
		mb.space.Signal()
	}
	return msg
}

// tryTake removes the oldest message, if there is one.
func (mb *mailbox) tryTake() (Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.n == 0 {
		return Message{}, false
	}
	return mb.pop(), true
}

// take removes the oldest message, waiting for a delivery while the mailbox
// is empty. It returns false if the world stops first.
func (mb *mailbox) take() (Message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.n == 0 {
		if mb.stopped {
			return Message{}, false
		}
		mb.avail.Wait()
	}
	return mb.pop(), true
}

// stop releases every waiter, now and from here on: a put that finds no room
// and a take that finds no message return false instead of waiting.
func (mb *mailbox) stop() {
	mb.mu.Lock()
	mb.stopped = true
	mb.avail.Broadcast()
	mb.space.Broadcast()
	mb.mu.Unlock()
}

// len returns the number of queued messages.
func (mb *mailbox) len() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.n
}

// drain empties the mailbox and returns its messages, oldest first.
func (mb *mailbox) drain() []Message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var out []Message
	for mb.n > 0 {
		out = append(out, mb.pop())
	}
	return out
}
