package tainthub

import (
	"encoding/binary"
	"errors"
	"fmt"

	"chaser/internal/tainthub/codec"
	"chaser/internal/wal"
)

// Write-ahead log: a Durable hub is one internal/wal Log, laid out as
//
//	header      magic and record-layout version
//	publish ×N  one per entry the hub held when the log was last compacted
//	checkpoint  the counters at that moment
//	publish / retire ...  every mutation since, appended before it is applied
//
// Everything up to the checkpoint is the compacted head, written whole by
// wal.Create (temp file, fsync, rename); everything after it is appended, so
// a hard crash (kill -9) loses nothing that was acknowledged. Each append is
// a single unbuffered write, so acknowledged records survive process death
// without fsync (fsync happens at compaction and close, bounding loss on
// power failure, not on kill -9). Payloads are fields packed with the codec
// package's varints and run-length-encoded masks — the same primitives the
// wire protocol uses, so one codec owns every persisted byte.

const (
	walMagic = 0x4c415743 // "CWAL" little-endian
	// walVersion 4: one file. v3 paired a generation-numbered log with a
	// separate snapshot file; v2 logged consumed polls and a ReqID per record.
	walVersion = 4

	walRecHeader     = 1
	walRecPublish    = 2
	walRecRetire     = 3
	walRecCheckpoint = 4

	// maxWALPayload rejects absurd length fields before allocating: real
	// payloads are bounded by the MPI hook's 64 MiB message cap plus a few
	// fixed fields.
	maxWALPayload = 80 << 20
)

// CorruptError reports an unrecoverable log: not a torn tail (those are
// silently truncated) but damage to its compacted head — a bad magic, a
// version this build does not write, or a replay that ends before the
// checkpoint. Recovery refuses to guess at state and leaves the file as it
// was.
type CorruptError struct {
	File   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("tainthub: %s: %s", e.File, e.Reason)
}

var le = binary.LittleEndian

// walOptions is how the hub opens its log.
var walOptions = wal.Options{MaxPayload: maxWALPayload}

func encodeWALHeader() []byte {
	return append(le.AppendUint32([]byte{walRecHeader}, walMagic), walVersion)
}

// checkWALHeader validates the header record. Any version but the current
// one is refused — silently misreading another layout would resurrect or
// drop taint.
func checkWALHeader(p []byte) error {
	if len(p) < 6 || p[0] != walRecHeader || le.Uint32(p[1:5]) != walMagic {
		return errors.New("bad header record")
	}
	if p[5] != walVersion {
		return fmt.Errorf("unsupported WAL version %d (have %d)", p[5], walVersion)
	}
	if len(p) != 6 {
		return errors.New("bad header record")
	}
	return nil
}

// checkpointStats are the counters a checkpoint record carries, in order.
func checkpointStats(st *Stats) []*uint64 {
	return []*uint64{&st.Published, &st.Polls, &st.Hits, &st.Evicted, &st.Replayed}
}

// encodeWALHead is the compacted head of a log holding s: the header, one
// publish record per entry, and the checkpoint.
func encodeWALHead(s *store) [][]byte {
	recs := make([][]byte, 0, 2+s.pending)
	recs = append(recs, encodeWALHeader())
	for _, n := range s.ns {
		for ek, e := range n.entries {
			recs = append(recs, encodeWALPublish(ek.k, ek.seq, e.stamp, e.masks))
		}
	}
	ckpt := []byte{walRecCheckpoint}
	for _, v := range checkpointStats(&s.stats) {
		ckpt = codec.AppendUvarint(ckpt, *v)
	}
	return append(recs, ckpt)
}

// decodeWALCheckpoint decodes the counters of the checkpoint record p into
// st.
func decodeWALCheckpoint(p []byte, st *Stats) error {
	b := p[1:]
	var err error
	for _, f := range checkpointStats(st) {
		if *f, b, err = codec.ConsumeUvarint(b); err != nil {
			return err
		}
	}
	if len(b) != 0 {
		return errors.New("trailing bytes in checkpoint record")
	}
	return nil
}

// walMutation is one replayable record: a publish of (k, seq, stamp, masks)
// or a retire of the namespaces [lo, hi).
type walMutation struct {
	kind   byte
	k      Key
	seq    uint64
	stamp  int64
	masks  []uint8
	lo, hi int
}

func encodeWALPublish(k Key, seq uint64, stamp int64, masks []uint8) []byte {
	b := append(make([]byte, 0, 32+len(masks)/4), walRecPublish)
	b = codec.AppendSvarint(b, int64(k.Src))
	b = codec.AppendSvarint(b, int64(k.Dst))
	b = codec.AppendSvarint(b, int64(k.Tag))
	b = codec.AppendSvarint(b, int64(k.NS))
	b = codec.AppendUvarint(b, seq)
	b = codec.AppendSvarint(b, stamp)
	return codec.AppendMasks(b, masks)
}

func encodeWALRetire(lo, hi int) []byte {
	b := append(make([]byte, 0, 16), walRecRetire)
	b = codec.AppendSvarint(b, int64(lo))
	return codec.AppendSvarint(b, int64(hi))
}

// decodeWALMutation decodes one mutation record.
func decodeWALMutation(p []byte) (walMutation, error) {
	var m walMutation
	if len(p) < 1 {
		return m, errors.New("empty mutation record")
	}
	m.kind = p[0]
	b := p[1:]
	var err error
	var ints []*int
	switch m.kind {
	case walRecPublish:
		ints = []*int{&m.k.Src, &m.k.Dst, &m.k.Tag, &m.k.NS}
	case walRecRetire:
		ints = []*int{&m.lo, &m.hi}
	default:
		return m, fmt.Errorf("unknown record kind %d", m.kind)
	}
	for _, f := range ints {
		var v int64
		if v, b, err = codec.ConsumeSvarint(b); err != nil {
			return m, err
		}
		*f = int(v)
	}
	if m.kind == walRecPublish {
		if m.seq, b, err = codec.ConsumeUvarint(b); err != nil {
			return m, err
		}
		if m.stamp, b, err = codec.ConsumeSvarint(b); err != nil {
			return m, err
		}
		if m.masks, b, err = codec.ConsumeMasks(b, maxWALPayload); err != nil {
			return m, err
		}
	}
	if len(b) != 0 {
		return m, errors.New("trailing bytes in mutation record")
	}
	return m, nil
}
