package tainthub

import (
	"fmt"

	"chaser/internal/obs"
)

// eventsHub decorates a Hub with structured event emission: one event per
// logical Publish/Poll, feeding the campaign observatory's live /events feed.
// Metrics (counts) live in the hub's registry instrumentation; events carry
// the per-message detail (flow key, sequence, tainted byte count).
type eventsHub struct {
	h    Hub
	sink *obs.Sink
}

// WithEvents wraps h so every Publish and Poll also emits a structured event
// into sink. A nil sink (or nil hub) returns h unchanged — the disabled
// configuration costs nothing.
func WithEvents(h Hub, sink *obs.Sink) Hub {
	if h == nil || sink == nil {
		return h
	}
	return &eventsHub{h: h, sink: sink}
}

// FlowLabel renders one message of a flow the way hub events name it.
func FlowLabel(k Key, seq uint64) string {
	return fmt.Sprintf("%d->%d tag %d seq %d", k.Src, k.Dst, k.Tag, seq)
}

func taintedCount(masks []uint8) uint64 {
	var n uint64
	for _, m := range masks {
		if m != 0 {
			n++
		}
	}
	return n
}

// Publish implements Hub.
func (e *eventsHub) Publish(id ReqID, k Key, seq uint64, masks []uint8) error {
	err := e.h.Publish(id, k, seq, masks)
	typ := "hub_publish"
	if err != nil {
		typ = "hub_publish_error"
	}
	e.sink.Emit(typ, -1, k.Src, seq, taintedCount(masks), FlowLabel(k, seq))
	return err
}

// Poll implements Hub.
func (e *eventsHub) Poll(id ReqID, k Key, seq uint64) ([]uint8, bool, error) {
	masks, ok, err := e.h.Poll(id, k, seq)
	typ := "hub_poll_miss"
	switch {
	case err != nil:
		typ = "hub_poll_error"
	case ok:
		typ = "hub_poll_hit"
	}
	e.sink.Emit(typ, -1, k.Dst, seq, taintedCount(masks), FlowLabel(k, seq))
	return masks, ok, err
}

// Stats implements Hub.
func (e *eventsHub) Stats() Stats { return e.h.Stats() }
