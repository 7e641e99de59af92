package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
)

// The binary codec frames every message as
//
//	0xC7 | uvarint payloadLen | payload
//
// The magic byte can never begin a JSON request, so a server peeking one
// byte classifies the connection's format without consuming anything.
// Payloads are varint-packed records; masks are run-length encoded (see
// pack.go). Because the length is declared up front, an oversized frame is
// rejected before buffering and resync is exact: discard payloadLen bytes.

// BinaryMagic opens every binary frame.
const BinaryMagic = 0xC7

// Request payload op codes (first payload byte).
const (
	binOpPublish = 1
	binOpPoll    = 2
	binOpStats   = 3
	binOpBatch   = 4
	binOpRetire  = 5
)

// Response flag bits (first payload byte of a single response; a batch
// response payload starts with binRespBatch instead, which no flag
// combination of a single response reaches because bit 7 is reserved).
const (
	binFlagOK    = 1 << 0
	binFlagFound = 1 << 1
	binFlagBusy  = 1 << 2
	binFlagMasks = 1 << 3
	binFlagStats = 1 << 4
	binFlagErr   = 1 << 5

	binRespBatch = 1 << 7
)

// maxBatchEntries bounds a decoded batch's declared entry count before
// allocation; entries are at least two bytes each, so the frame limit
// bounds real batches far tighter.
const maxBatchEntries = 1 << 20

type binaryParser struct {
	br       *bufio.Reader
	maxFrame int
	scratch  []byte
}

// readFrame reads one length-prefixed frame into the reusable scratch
// buffer. Oversized frames are discarded exactly (the length is declared)
// and surface as *FrameError with the stream already resynchronized.
func (p *binaryParser) readFrame() ([]byte, error) {
	magic, err := p.br.ReadByte()
	if err != nil {
		return nil, err // io.EOF at a frame boundary is a clean disconnect
	}
	if magic != BinaryMagic {
		return nil, &MalformedError{Reason: "bad frame magic"}
	}
	n, err := binary.ReadUvarint(p.br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, &MalformedError{Reason: "frame length", err: err}
	}
	if n == 0 {
		return nil, &MalformedError{Reason: "empty frame"}
	}
	if n > uint64(p.maxFrame) {
		// Exact resync: skip the declared payload. A peer lying about the
		// length is bounded by the connection's read deadline.
		if _, err := io.CopyN(io.Discard, p.br, int64(n)); err != nil {
			return nil, err
		}
		return nil, &FrameError{Size: int(n), Limit: p.maxFrame}
	}
	if uint64(cap(p.scratch)) < n {
		p.scratch = make([]byte, n)
	}
	buf := p.scratch[:n]
	if _, err := io.ReadFull(p.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

func (p *binaryParser) ReadRequest() (Request, error) {
	buf, err := p.readFrame()
	if err != nil {
		return Request{}, err
	}
	req, rest, err := decodeRequestPayload(buf, p.maxFrame, true)
	if err != nil {
		return Request{}, err
	}
	if len(rest) != 0 {
		return Request{}, &MalformedError{Reason: "trailing bytes after request"}
	}
	return req, nil
}

func (p *binaryParser) ReadResponse() (Response, error) {
	buf, err := p.readFrame()
	if err != nil {
		return Response{}, err
	}
	resp, rest, err := decodeResponsePayload(buf, p.maxFrame, true)
	if err != nil {
		return Response{}, err
	}
	if len(rest) != 0 {
		return Response{}, &MalformedError{Reason: "trailing bytes after response"}
	}
	return resp, nil
}

func decodeRequestPayload(b []byte, maxMasks int, allowBatch bool) (Request, []byte, error) {
	var req Request
	if len(b) < 1 {
		return req, b, &MalformedError{Reason: "empty request payload"}
	}
	op := b[0]
	b = b[1:]
	switch op {
	case binOpStats:
		req.Op = OpStats
		return req, b, nil
	case binOpBatch:
		if !allowBatch {
			return req, b, &MalformedError{Reason: "nested batch"}
		}
		req.Op = OpBatch
		n, rest, err := ConsumeUvarint(b)
		if err != nil || n == 0 || n > maxBatchEntries {
			return req, b, &MalformedError{Reason: "batch count", err: err}
		}
		b = rest
		req.Batch = make([]Request, 0, n)
		for i := uint64(0); i < n; i++ {
			var sub Request
			var err error
			sub, b, err = decodeRequestPayload(b, maxMasks, false)
			if err != nil {
				return req, b, err
			}
			req.Batch = append(req.Batch, sub)
		}
		return req, b, nil
	case binOpRetire:
		req.Op = OpRetire
		for _, bound := range []*int{&req.NS, &req.NSEnd} {
			v, rest, err := ConsumeSvarint(b)
			if err != nil {
				return req, b, &MalformedError{Reason: "retire range", err: err}
			}
			*bound, b = int(v), rest
		}
		return req, b, nil
	case binOpPublish, binOpPoll:
		if op == binOpPublish {
			req.Op = OpPublish
		} else {
			req.Op = OpPoll
		}
		var err error
		if req.Client, req.Req, b, err = consumeReqID(b); err != nil {
			return req, b, &MalformedError{Reason: "request id", err: err}
		}
		if req.Src, req.Dst, req.Tag, req.NS, b, err = consumeKey(b); err != nil {
			return req, b, &MalformedError{Reason: "request key", err: err}
		}
		if req.Seq, b, err = ConsumeUvarint(b); err != nil {
			return req, b, &MalformedError{Reason: "request seq", err: err}
		}
		if op == binOpPublish {
			if req.Masks, b, err = ConsumeMasks(b, maxMasks); err != nil {
				// The frame was fully consumed; only the mask bytes are
				// unusable. Permanent and connection-recoverable.
				return req, b, &PayloadError{Reason: err.Error()}
			}
		}
		return req, b, nil
	}
	return req, b, &MalformedError{Reason: "unknown request op"}
}

func decodeResponsePayload(b []byte, maxMasks int, allowBatch bool) (Response, []byte, error) {
	var resp Response
	if len(b) < 1 {
		return resp, b, &MalformedError{Reason: "empty response payload"}
	}
	if b[0] == binRespBatch {
		if !allowBatch {
			return resp, b, &MalformedError{Reason: "nested batch response"}
		}
		b = b[1:]
		n, rest, err := ConsumeUvarint(b)
		if err != nil || n == 0 || n > maxBatchEntries {
			return resp, b, &MalformedError{Reason: "batch count", err: err}
		}
		b = rest
		resp.OK = true
		resp.Batch = make([]Response, 0, n)
		for i := uint64(0); i < n; i++ {
			var sub Response
			var err error
			sub, b, err = decodeResponsePayload(b, maxMasks, false)
			if err != nil {
				return resp, b, err
			}
			resp.Batch = append(resp.Batch, sub)
		}
		return resp, b, nil
	}
	flags := b[0]
	b = b[1:]
	if flags&^(binFlagOK|binFlagFound|binFlagBusy|binFlagMasks|binFlagStats|binFlagErr) != 0 {
		return resp, b, &MalformedError{Reason: "unknown response flags"}
	}
	resp.OK = flags&binFlagOK != 0
	resp.Found = flags&binFlagFound != 0
	resp.Busy = flags&binFlagBusy != 0
	var err error
	if resp.Client, resp.Req, b, err = consumeReqID(b); err != nil {
		return resp, b, &MalformedError{Reason: "response id", err: err}
	}
	if resp.Busy {
		var ra uint64
		if ra, b, err = ConsumeUvarint(b); err != nil {
			return resp, b, &MalformedError{Reason: "retry-after", err: err}
		}
		resp.RetryAfterMs = int64(ra)
	}
	if flags&binFlagMasks != 0 {
		if resp.Masks, b, err = ConsumeMasks(b, maxMasks); err != nil {
			return resp, b, &PayloadError{Reason: err.Error()}
		}
	}
	if flags&binFlagStats != 0 {
		var st Stats
		var pending uint64
		fields := []*uint64{&st.Published, &st.Polls, &st.Hits, &pending, &st.Evicted, &st.Replayed}
		for _, f := range fields {
			if *f, b, err = ConsumeUvarint(b); err != nil {
				return resp, b, &MalformedError{Reason: "stats", err: err}
			}
		}
		st.Pending = int(pending)
		resp.Stats = &st
	}
	if flags&binFlagErr != 0 {
		if resp.Err, b, err = consumeString(b); err != nil {
			return resp, b, &MalformedError{Reason: "error text", err: err}
		}
		if resp.Code, b, err = consumeString(b); err != nil {
			return resp, b, &MalformedError{Reason: "error code", err: err}
		}
	}
	return resp, b, nil
}

func consumeReqID(b []byte) (client, req uint64, rest []byte, err error) {
	if client, b, err = ConsumeUvarint(b); err != nil {
		return 0, 0, b, err
	}
	if req, b, err = ConsumeUvarint(b); err != nil {
		return 0, 0, b, err
	}
	return client, req, b, nil
}

func consumeKey(b []byte) (src, dst, tag, ns int, rest []byte, err error) {
	vals := make([]int64, 4)
	for i := range vals {
		if vals[i], b, err = ConsumeSvarint(b); err != nil {
			return 0, 0, 0, 0, b, err
		}
	}
	return int(vals[0]), int(vals[1]), int(vals[2]), int(vals[3]), b, nil
}

func consumeString(b []byte) (string, []byte, error) {
	n, b, err := ConsumeUvarint(b)
	if err != nil {
		return "", b, err
	}
	if n > uint64(len(b)) {
		return "", b, errShortBuffer
	}
	return string(b[:n]), b[n:], nil
}

type binaryEmitter struct {
	bw      *bufio.Writer
	payload []byte // reusable payload scratch
	hdr     []byte
}

func newBinaryEmitter(w io.Writer) *binaryEmitter {
	return &binaryEmitter{bw: bufio.NewWriter(w), hdr: make([]byte, 0, 11)}
}

func (e *binaryEmitter) writeFrame(payload []byte) error {
	e.hdr = append(e.hdr[:0], BinaryMagic)
	e.hdr = AppendUvarint(e.hdr, uint64(len(payload)))
	if _, err := e.bw.Write(e.hdr); err != nil {
		return err
	}
	_, err := e.bw.Write(payload)
	return err
}

func (e *binaryEmitter) WriteRequest(req Request) error {
	b, err := appendRequestPayload(e.payload[:0], req, true)
	if err != nil {
		return err
	}
	e.payload = b
	return e.writeFrame(b)
}

func (e *binaryEmitter) WriteResponse(resp Response) error {
	b, err := appendResponsePayload(e.payload[:0], resp, true)
	if err != nil {
		return err
	}
	e.payload = b
	return e.writeFrame(b)
}

func (e *binaryEmitter) Flush() error { return e.bw.Flush() }

var errNestedBatch = errors.New("tainthub: batches do not nest")

func appendRequestPayload(b []byte, req Request, allowBatch bool) ([]byte, error) {
	switch req.Op {
	case OpStats:
		return append(b, binOpStats), nil
	case OpBatch:
		if !allowBatch {
			return b, errNestedBatch
		}
		b = append(b, binOpBatch)
		b = AppendUvarint(b, uint64(len(req.Batch)))
		var err error
		for _, sub := range req.Batch {
			if b, err = appendRequestPayload(b, sub, false); err != nil {
				return b, err
			}
		}
		return b, nil
	case OpRetire:
		b = append(b, binOpRetire)
		b = AppendSvarint(b, int64(req.NS))
		return AppendSvarint(b, int64(req.NSEnd)), nil
	case OpPublish, OpPoll:
		if req.Op == OpPublish {
			b = append(b, binOpPublish)
		} else {
			b = append(b, binOpPoll)
		}
		b = AppendUvarint(b, req.Client)
		b = AppendUvarint(b, req.Req)
		b = AppendSvarint(b, int64(req.Src))
		b = AppendSvarint(b, int64(req.Dst))
		b = AppendSvarint(b, int64(req.Tag))
		b = AppendSvarint(b, int64(req.NS))
		b = AppendUvarint(b, req.Seq)
		if req.Op == OpPublish {
			b = AppendMasks(b, req.Masks)
		}
		return b, nil
	}
	return b, errors.New("tainthub: unknown request op " + req.Op)
}

func appendResponsePayload(b []byte, resp Response, allowBatch bool) ([]byte, error) {
	if resp.Batch != nil {
		if !allowBatch {
			return b, errNestedBatch
		}
		b = append(b, binRespBatch)
		b = AppendUvarint(b, uint64(len(resp.Batch)))
		var err error
		for _, sub := range resp.Batch {
			if b, err = appendResponsePayload(b, sub, false); err != nil {
				return b, err
			}
		}
		return b, nil
	}
	var flags byte
	if resp.OK {
		flags |= binFlagOK
	}
	if resp.Found {
		flags |= binFlagFound
	}
	if resp.Busy {
		flags |= binFlagBusy
	}
	if len(resp.Masks) > 0 {
		flags |= binFlagMasks
	}
	if resp.Stats != nil {
		flags |= binFlagStats
	}
	if resp.Err != "" || resp.Code != "" {
		flags |= binFlagErr
	}
	b = append(b, flags)
	b = AppendUvarint(b, resp.Client)
	b = AppendUvarint(b, resp.Req)
	if resp.Busy {
		b = AppendUvarint(b, uint64(resp.RetryAfterMs))
	}
	if len(resp.Masks) > 0 {
		b = AppendMasks(b, resp.Masks)
	}
	if resp.Stats != nil {
		st := resp.Stats
		for _, v := range []uint64{st.Published, st.Polls, st.Hits, uint64(st.Pending), st.Evicted, st.Replayed} {
			b = AppendUvarint(b, v)
		}
	}
	if flags&binFlagErr != 0 {
		b = appendString(b, resp.Err)
		b = appendString(b, resp.Code)
	}
	return b, nil
}

func appendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
