// Package codec defines the serialization layer shared by every place the
// TaintHub persists or transmits records: the TCP wire protocol, the
// write-ahead log, and snapshots. It exposes a small Parser/Emitter
// interface pair (the objconv idiom: the protocol logic programs against
// the pair, the format is an implementation detail) with two
// implementations:
//
//   - FormatJSON: the original newline-delimited JSON protocol with
//     base64-encoded masks, kept byte-compatible as the compatibility
//     option that proves the abstraction;
//   - FormatBinary: a compact length-prefixed binary format with
//     varint-packed record schemas and run-length-encoded taint masks,
//     the default for the heavy-traffic path.
//
// Parsers and Emitters are not safe for concurrent use; the hub's client
// and server each own one per connection direction.
package codec

import (
	"bufio"
	"fmt"
	"io"
)

// Format selects a wire codec.
type Format int

const (
	// FormatAuto means "no preference": servers autodetect per connection
	// from the first byte, clients use FormatBinary.
	FormatAuto Format = iota
	// FormatJSON is the legacy newline-delimited JSON protocol.
	FormatJSON
	// FormatBinary is the compact length-prefixed binary protocol.
	FormatBinary
)

// String returns the flag spelling of the format.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatJSON:
		return "json"
	case FormatBinary:
		return "binary"
	}
	return fmt.Sprintf("format(%d)", int(f))
}

// ParseFormat parses a -wire flag value.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "auto", "":
		return FormatAuto, nil
	case "json":
		return FormatJSON, nil
	case "binary":
		return FormatBinary, nil
	}
	return FormatAuto, fmt.Errorf("unknown wire format %q (want auto, json or binary)", s)
}

// Request ops. The names are part of the JSON wire format.
const (
	OpPublish = "publish"
	OpPoll    = "poll"
	OpStats   = "stats"
	// OpRetire drops every entry whose namespace is in [NS, NSEnd).
	OpRetire = "retire"
	// OpBatch carries many single-op requests in one frame; the response is
	// a batch of the same length in the same order. Batches do not nest.
	OpBatch = "batch"
)

// Request is one hub RPC as it crosses the wire. Masks carry raw mask
// bytes; the JSON codec base64-encodes them (matching the legacy wire
// bytes exactly), the binary codec run-length-encodes them.
type Request struct {
	Op     string    `json:"op"`
	Client uint64    `json:"client,omitempty"`
	Req    uint64    `json:"req,omitempty"`
	Src    int       `json:"src"`
	Dst    int       `json:"dst"`
	Tag    int       `json:"tag"`
	NS     int       `json:"ns,omitempty"`
	Seq    uint64    `json:"seq"`
	Masks  []byte    `json:"masks,omitempty"`
	NSEnd  int       `json:"ns_end,omitempty"` // retire only: NS is the range's start
	Batch  []Request `json:"batch,omitempty"`
}

// Response is one hub reply. Client/Req echo the request's ReqID so a
// pipelined client can verify correlation; Code classifies errors so the
// retry layer can tell permanent failures from transient ones.
type Response struct {
	OK           bool       `json:"ok"`
	Found        bool       `json:"found,omitempty"`
	Masks        []byte     `json:"masks,omitempty"`
	Stats        *Stats     `json:"stats,omitempty"`
	Busy         bool       `json:"busy,omitempty"` // server over limits; retry after RetryAfterMs
	RetryAfterMs int64      `json:"retry_after_ms,omitempty"`
	Err          string     `json:"err,omitempty"`
	Code         string     `json:"code,omitempty"`
	Client       uint64     `json:"client,omitempty"`
	Req          uint64     `json:"req,omitempty"`
	Batch        []Response `json:"batch,omitempty"`
}

// Error codes carried in Response.Code.
const (
	// CodePayload marks a permanent error: the request's payload bytes can
	// never decode (or can never be accepted), so re-sending them is futile.
	CodePayload = "payload"
	// CodeFrame marks an oversized frame rejected before buffering.
	CodeFrame = "frame"
)

// Stats counts hub activity. It is aliased as tainthub.Stats; the field
// names are part of the JSON wire format.
type Stats struct {
	Published uint64 // statuses first stored (a repeated publish of one is not counted again)
	Polls     uint64 // poll requests served, repeats included
	Hits      uint64 // poll requests served that found a tainted status
	Pending   int    // statuses currently stored
	Evicted   uint64 // entries dropped by TTL
	Replayed  uint64 // WAL records replayed at recovery (durable hubs)
}

// FrameError reports a frame exceeding the parser's limit — the wire-level
// DoS guard that rejects an oversized request before its payload is
// buffered. It is recoverable: the parser has already discarded the rest
// of the frame, so the stream is resynchronized on the next frame.
type FrameError struct {
	Size  int // bytes seen (or declared) before giving up
	Limit int
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("tainthub: request frame over %d bytes (saw %d)", e.Limit, e.Size)
}

// PayloadError reports a structurally intact frame whose payload bytes can
// never decode (malformed base64, a corrupt RLE stream). It is permanent —
// retrying the same bytes cannot succeed — and recoverable: the frame was
// fully consumed, so the connection stays usable.
type PayloadError struct {
	Reason string
}

func (e *PayloadError) Error() string {
	return "tainthub: undecodable payload: " + e.Reason
}

// MalformedError reports a frame the parser cannot make sense of (garbage
// bytes, protocol drift). The stream position is unreliable afterwards;
// the connection should be dropped.
type MalformedError struct {
	Reason string
	err    error
}

func (e *MalformedError) Error() string {
	if e.err != nil {
		return "tainthub: malformed frame: " + e.Reason + ": " + e.err.Error()
	}
	return "tainthub: malformed frame: " + e.Reason
}

func (e *MalformedError) Unwrap() error { return e.err }

// Parser decodes protocol messages from a stream. Implementations bound
// every frame at the limit given to NewParser and guarantee that arbitrary
// input surfaces as an error, never a panic.
type Parser interface {
	// ReadRequest decodes the next request frame (server side).
	ReadRequest() (Request, error)
	// ReadResponse decodes the next response frame (client side).
	ReadResponse() (Response, error)
}

// Emitter encodes protocol messages onto a stream. Writes are buffered;
// Flush sends them. Batching writes many messages per Flush so one
// syscall (and one TCP segment train) carries many logical RPCs.
type Emitter interface {
	WriteRequest(Request) error
	WriteResponse(Response) error
	Flush() error
}

// NewParser returns a parser for an explicit format (FormatJSON or
// FormatBinary; FormatAuto is not valid here — use Detect first).
// maxFrame bounds one frame; larger frames fail with *FrameError.
func NewParser(f Format, br *bufio.Reader, maxFrame int) Parser {
	switch f {
	case FormatBinary:
		return &binaryParser{br: br, maxFrame: maxFrame}
	default:
		return &jsonParser{br: br, maxFrame: maxFrame}
	}
}

// NewEmitter returns an emitter writing format f to w through an internal
// buffer; call Flush to push frames out.
func NewEmitter(f Format, w io.Writer) Emitter {
	switch f {
	case FormatBinary:
		return newBinaryEmitter(w)
	default:
		return newJSONEmitter(w)
	}
}

// Detect peeks one byte to classify the connection's format without
// consuming it: binary frames always open with BinaryMagic, which can
// never begin a JSON request.
func Detect(br *bufio.Reader) (Format, error) {
	b, err := br.Peek(1)
	if err != nil {
		return FormatAuto, err
	}
	if b[0] == BinaryMagic {
		return FormatBinary, nil
	}
	return FormatJSON, nil
}
