package mpi

// mailboxCap bounds per-rank in-flight messages (eager-send buffering): a
// send to a rank already holding this many undelivered messages waits until
// the rank receives one.
const mailboxCap = 1024

// mailbox is one rank's queue of delivered, not yet received messages. It is
// a FIFO ring that holds storage for the messages actually in flight: empty
// until the first delivery — a rank nobody sends to, every serial guest's,
// allocates nothing — then doubling up to mailboxCap slots, so a halo
// exchange that keeps a handful of messages in flight settles on a ring of
// eight and delivers without allocating.
//
// Any rank may put and only the owning rank takes, each while it holds the
// baton: the ring is plain data.
type mailbox struct {
	ring []Message // len(ring) is the capacity
	head int       // index of the oldest message
	n    int       // messages queued
}

// load preloads the empty queue, oldest first (restoring a paused world).
func (mb *mailbox) load(msgs []Message) {
	if len(msgs) > len(mb.ring) {
		mb.ring = make([]Message, len(msgs))
	}
	mb.n = copy(mb.ring, msgs)
}

// keptRing bounds the ring an emptied mailbox keeps for the world it is
// reset into: a halo exchange's eight slots, with room to spare.
const keptRing = 64

// emptied returns the mailbox with no message queued, keeping its ring
// (cleared, so it holds no payload) unless that grew past keptRing.
func (mb *mailbox) emptied() mailbox {
	if len(mb.ring) > keptRing {
		return mailbox{}
	}
	clear(mb.ring)
	return mailbox{ring: mb.ring}
}

// put delivers msg unless the mailbox is full at mailboxCap, growing the ring
// when it is full below that.
func (mb *mailbox) put(msg *Message) bool {
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

// take removes the oldest message, if there is one.
func (mb *mailbox) take() (Message, bool) {
	if mb.n == 0 {
		return Message{}, false
	}
	msg := mb.ring[mb.head]
	mb.ring[mb.head] = Message{} // drop the payload reference
	mb.head = (mb.head + 1) % len(mb.ring)
	mb.n--
	return msg, true
}

// messages returns a copy of the queue, oldest first.
func (mb *mailbox) messages() []Message {
	if mb.n == 0 {
		return nil
	}
	out := make([]Message, mb.n)
	for i := range out {
		out[i] = mb.ring[(mb.head+i)%len(mb.ring)]
	}
	return out
}
