// Package wal is the one place this tree frames, checks and replaces
// durable bytes. Every record on disk or on a stream is one frame:
//
//	u32 LE payload length | u32 LE CRC-32 (IEEE) of payload | payload
//
// The TaintHub WAL, chaserd's control-plane log, the campaign
// journals and the fence file all use it; what a payload means is the
// caller's business. On top of the frame sit a
// single-file append-only Log (replay the intact prefix, truncate the
// damaged tail, append with one write) and an atomic whole-file write.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// HeaderSize is the framing overhead of one record.
const HeaderSize = 8

var (
	// ErrTorn reports a stream that ended inside a frame: what a crash
	// mid-write or a severed connection leaves.
	ErrTorn = errors.New("wal: torn frame")
	// ErrCorrupt reports a complete frame that cannot be trusted: a length
	// out of bounds or a checksum mismatch. A Log's replay callback returns
	// it for a payload it cannot decode, which ends the replay the same way.
	ErrCorrupt = errors.New("wal: corrupt frame")
	// ErrInjected is the failure an armed fault hook produces.
	ErrInjected = errors.New("wal: injected fault")
)

// Fault sites a Log consults its hook at.
const (
	// FaultShortWrite makes an append write half its frame and fail.
	FaultShortWrite = "wal.short_write"
	// FaultSync fails the fsync after an append (Sync mode only).
	FaultSync = "wal.fsync"
)

var le = binary.LittleEndian

// AppendFrame appends the frame of payload to dst.
func AppendFrame(dst, payload []byte) []byte {
	dst = le.AppendUint32(dst, uint32(len(payload)))
	dst = le.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// ReadFrame reads one frame and returns its payload. io.EOF means the
// stream ended cleanly at a frame boundary, ErrTorn that it ended inside a
// frame, ErrCorrupt structural damage; anything else is the reader's own
// error. The length is checked against max before the payload is allocated,
// and a zero length is refused: a zero-filled region would otherwise read as
// an endless run of valid empty frames (the CRC of nothing is 0).
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = ErrTorn
		}
		return nil, err
	}
	n := le.Uint32(hdr[0:4])
	if n == 0 || uint64(n) > uint64(max) {
		return nil, fmt.Errorf("%w: length %d out of (0, %d]", ErrCorrupt, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = ErrTorn
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != le.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// scan feeds every intact frame of r to fn and returns the offset just past
// the last one fn accepted. Frames are single writes, so only the true tail
// can legitimately be torn; any other damage is bit rot and nothing after it
// can be trusted. Either way the scan ends there without an error, and so
// does a payload fn rejects with ErrCorrupt. Any other error from fn or from
// r aborts the scan.
func scan(r io.Reader, max int, fn func(payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, scanBuffer(r))
	var good int64
	for {
		payload, err := ReadFrame(br, max)
		if err == nil && fn != nil {
			err = fn(payload)
		}
		switch {
		case err == nil:
			good += int64(HeaderSize + len(payload))
		case err == io.EOF, errors.Is(err, ErrTorn), errors.Is(err, ErrCorrupt):
			return good, nil
		default:
			return good, err
		}
	}
}

// scanBuffer is the read size of a scan: 64 KiB, or the whole file when r can
// say it is smaller — a shard's journal is a few hundred bytes.
func scanBuffer(r io.Reader) int {
	size := 64 << 10
	if f, ok := r.(interface{ Stat() (os.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Size() < int64(size) {
			size = int(fi.Size())
		}
	}
	return size
}

// Replay reads the log at path without modifying it, feeding the intact
// prefix to fn under the rules of scan.
func Replay(path string, max int, fn func(payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = scan(f, max, fn)
	return err
}

// Options configures a Log.
type Options struct {
	// MaxPayload bounds one record, on append and before allocation on read.
	MaxPayload int
	// Sync fsyncs after every append.
	Sync bool
	// Fault, when set, is asked at FaultShortWrite before each write and at
	// FaultSync after each fsync; true injects the failure.
	Fault func(site string) bool
}

// Log is an append-only file of frames. It has one writer and is not safe
// for concurrent use; every caller already serialises its appends.
type Log struct {
	f    *os.File
	size int64
	opts Options
}

const tmpSuffix = ".tmp"

// Open opens the existing log at path: it replays the intact prefix through
// replay (nil = only find the end), truncates a torn or corrupt tail so that
// later appends land after valid records only, and positions for append. An
// error from replay other than ErrCorrupt aborts the open and leaves the
// file as it was.
func Open(path string, opts Options, replay func(payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	// A rewrite that crashed before its rename left its temp file behind;
	// the log it meant to replace is still the authoritative one.
	os.Remove(path + tmpSuffix)
	good, err := scan(f, opts.MaxPayload, replay)
	if err == nil {
		err = f.Truncate(good)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, size: good, opts: opts}, nil
}

// Create atomically replaces whatever is at path with a log holding exactly
// payloads and opens it for append. A crash at any point leaves either the
// old file or the new one.
func Create(path string, opts Options, durable bool, payloads [][]byte) (*Log, error) {
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	if err := WriteFile(path, buf, durable); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, size: int64(len(buf)), opts: opts}, nil
}

// Append writes one record as a single write(2) on an O_APPEND descriptor,
// so a crash can only tear the final frame, and returns the bytes written.
// A short or failed write is repaired by truncating back to the pre-write
// offset: left in place, the torn frame would end every later replay and
// silently drop each record acknowledged after it.
func (l *Log) Append(payload []byte) (int, error) {
	if len(payload) == 0 || len(payload) > l.opts.MaxPayload {
		return 0, fmt.Errorf("wal: append: payload %d out of (0, %d]", len(payload), l.opts.MaxPayload)
	}
	frame := AppendFrame(make([]byte, 0, HeaderSize+len(payload)), payload)
	var n int
	var err error
	if l.fault(FaultShortWrite) {
		n, _ = l.f.Write(frame[:len(frame)/2])
		err = ErrInjected
	} else {
		n, err = l.f.Write(frame)
	}
	if err != nil {
		if n > 0 {
			if terr := l.f.Truncate(l.size); terr != nil {
				return 0, fmt.Errorf("wal: append failed (%v) and log unrepaired: %w", err, terr)
			}
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(n)
	if l.opts.Sync {
		err = l.f.Sync()
		if l.fault(FaultSync) {
			err = ErrInjected
		}
		if err != nil {
			// The bytes are written; only durability is in doubt. The caller
			// must not treat the record as acknowledged, though a replay
			// after a real crash may still see it.
			return n, fmt.Errorf("wal: fsync: %w", err)
		}
	}
	return n, nil
}

func (l *Log) fault(site string) bool {
	return l.opts.Fault != nil && l.opts.Fault(site)
}

// Size returns the log's length in bytes.
func (l *Log) Size() int64 { return l.size }

// Close closes the file.
func (l *Log) Close() error { return l.f.Close() }

// WriteFile atomically replaces path with data: written to a temp file in
// the same directory, fsynced when durable, renamed over the target. Readers
// never observe a half-written file, and a temp file a crash leaves behind
// is overwritten by the next write.
func WriteFile(path string, data []byte, durable bool) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && durable {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: write %s: %w", path, err)
	}
	return nil
}
