package tainthub

import (
	"encoding/binary"
	"errors"
	"fmt"

	"chaser/internal/tainthub/codec"
	"chaser/internal/wal"
)

// Write-ahead log: every mutation of a Durable hub (publish, retire) is
// appended to an internal/wal Log before it is applied, so a hard
// crash (kill -9) loses nothing that was acknowledged. Each append is a
// single unbuffered write, so acknowledged records survive process death
// without fsync (fsync happens at snapshots and close, bounding loss on
// power failure, not on kill -9). The first record is always a header
// carrying the WAL generation, which pairs the file with the snapshot it
// extends (see durable.go for the recovery protocol), and the version of
// the record payloads: fields packed with the codec package's varints and
// run-length-encoded masks — the same primitives the wire protocol uses, so
// one codec owns every persisted byte.

const (
	walMagic   = 0x4c415743 // "CWAL" little-endian
	walVersion = 3          // v2 logged consumed polls and a ReqID per record

	walRecHeader  = 1
	walRecPublish = 2
	walRecRetire  = 3

	// maxWALPayload rejects absurd length fields before allocating: real
	// payloads are bounded by the MPI hook's 64 MiB message cap plus a few
	// fixed fields.
	maxWALPayload = 80 << 20
)

// CorruptError reports an unrecoverable WAL or snapshot file: not a torn
// tail (those are silently truncated) but structural damage — a bad magic,
// a checksum failure in a snapshot, or a WAL generation with no matching
// snapshot. Recovery refuses to guess at state.
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

func encodeWALHeader(gen uint64) []byte {
	b := make([]byte, 1+4+1+8)
	b[0] = walRecHeader
	le.PutUint32(b[1:5], walMagic)
	b[5] = walVersion
	le.PutUint64(b[6:14], gen)
	return b
}

// decodeWALHeader validates the header record and returns the generation.
// Any version but the current one is refused — silently misreading another
// layout would resurrect or drop taint.
func decodeWALHeader(p []byte) (gen uint64, err error) {
	if len(p) != 14 || p[0] != walRecHeader {
		return 0, errors.New("bad header record")
	}
	if le.Uint32(p[1:5]) != walMagic {
		return 0, errors.New("bad magic")
	}
	if p[5] != walVersion {
		return 0, fmt.Errorf("unsupported WAL version %d (have %d)", p[5], walVersion)
	}
	return le.Uint64(p[6:14]), nil
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
