package codec

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// goldenRequests pins the JSON wire bytes for every request shape. These
// strings are the frozen legacy protocol: clients and servers from before
// the codec package emitted exactly these bytes, so any drift here is a
// wire-compatibility break, not a refactor.
var goldenRequests = []struct {
	name string
	req  Request
	json string
}{
	{
		name: "publish",
		req: Request{Op: OpPublish, Client: 7, Req: 9, Src: 1, Dst: 2, Tag: 3, NS: 4, Seq: 5,
			Masks: []byte{0xaa, 0x55}},
		json: `{"op":"publish","client":7,"req":9,"src":1,"dst":2,"tag":3,"ns":4,"seq":5,"masks":"qlU="}`,
	},
	{
		name: "publish-zero-id",
		req:  Request{Op: OpPublish, Src: 0, Dst: 1, Tag: 7, Seq: 0, Masks: []byte{0xab}},
		json: `{"op":"publish","src":0,"dst":1,"tag":7,"seq":0,"masks":"qw=="}`,
	},
	{
		name: "poll",
		req:  Request{Op: OpPoll, Client: 7, Req: 1, Src: 0, Dst: 1, Tag: 2, Seq: 0},
		json: `{"op":"poll","client":7,"req":1,"src":0,"dst":1,"tag":2,"seq":0}`,
	},
	{
		name: "poll-negative-key",
		req:  Request{Op: OpPoll, Client: 1, Req: 2, Src: -1, Dst: -2, Tag: -3, NS: -4, Seq: 8},
		json: `{"op":"poll","client":1,"req":2,"src":-1,"dst":-2,"tag":-3,"ns":-4,"seq":8}`,
	},
	{
		name: "stats",
		req:  Request{Op: OpStats},
		json: `{"op":"stats","src":0,"dst":0,"tag":0,"seq":0}`,
	},
	{
		name: "retire",
		req:  Request{Op: OpRetire, NS: 100, NSEnd: 125},
		json: `{"op":"retire","src":0,"dst":0,"tag":0,"ns":100,"seq":0,"ns_end":125}`,
	},
	{
		name: "batch",
		req: Request{Op: OpBatch, Batch: []Request{
			{Op: OpPublish, Client: 3, Req: 1, Src: 0, Dst: 1, Tag: 2, Seq: 0, Masks: []byte{0xff, 0xff, 0xff, 0xff, 0xff}},
			{Op: OpPoll, Client: 3, Req: 2, Src: 1, Dst: 0, Tag: 2, Seq: 4},
		}},
		json: `{"op":"batch","src":0,"dst":0,"tag":0,"seq":0,"batch":[` +
			`{"op":"publish","client":3,"req":1,"src":0,"dst":1,"tag":2,"seq":0,"masks":"//////8="},` +
			`{"op":"poll","client":3,"req":2,"src":1,"dst":0,"tag":2,"seq":4}]}`,
	},
}

// goldenResponses pins the JSON wire bytes for every response shape.
var goldenResponses = []struct {
	name string
	resp Response
	json string
}{
	{
		name: "publish-ack",
		resp: Response{OK: true},
		json: `{"ok":true}`,
	},
	{
		name: "poll-hit",
		resp: Response{OK: true, Found: true, Masks: []byte{0xab, 0x00, 0xcd}},
		json: `{"ok":true,"found":true,"masks":"qwDN"}`,
	},
	{
		name: "poll-miss",
		resp: Response{OK: true},
		json: `{"ok":true}`,
	},
	{
		name: "stats",
		resp: Response{OK: true, Stats: &Stats{Published: 1, Polls: 2, Hits: 3, Pending: 4, Evicted: 5, Replayed: 7}},
		json: `{"ok":true,"stats":{"Published":1,"Polls":2,"Hits":3,"Pending":4,"Evicted":5,"Replayed":7}}`,
	},
	{
		name: "busy",
		resp: Response{Busy: true, RetryAfterMs: 50},
		json: `{"ok":false,"busy":true,"retry_after_ms":50}`,
	},
	{
		name: "error",
		resp: Response{Err: "unknown op \"x\""},
		json: `{"ok":false,"err":"unknown op \"x\""}`,
	},
	{
		name: "typed-error-with-echo",
		resp: Response{Err: "undecodable payload", Code: CodePayload, Client: 9, Req: 4},
		json: `{"ok":false,"err":"undecodable payload","code":"payload","client":9,"req":4}`,
	},
	{
		name: "batch",
		resp: Response{OK: true, Batch: []Response{
			{OK: true, Client: 3, Req: 1},
			{OK: true, Found: true, Masks: []byte{0x01}, Client: 3, Req: 2},
		}},
		json: `{"ok":true,"batch":[{"ok":true,"client":3,"req":1},{"ok":true,"found":true,"masks":"AQ==","client":3,"req":2}]}`,
	},
}

// TestGoldenRequestJSON pins every request shape's JSON wire bytes.
func TestGoldenRequestJSON(t *testing.T) {
	for _, g := range goldenRequests {
		t.Run(g.name, func(t *testing.T) {
			var buf bytes.Buffer
			e := NewEmitter(FormatJSON, &buf)
			if err := e.WriteRequest(g.req); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := strings.TrimRight(buf.String(), "\n"); got != g.json {
				t.Errorf("wire bytes drifted:\n got  %s\n want %s", got, g.json)
			}
			// And the parser must read those exact bytes back to the value.
			p := NewParser(FormatJSON, bufio.NewReader(strings.NewReader(g.json+"\n")), 1<<20)
			back, err := p.ReadRequest()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, g.req) {
				t.Errorf("json round trip:\n got  %+v\n want %+v", back, g.req)
			}
		})
	}
}

// TestGoldenResponseJSON pins every response shape's JSON wire bytes.
func TestGoldenResponseJSON(t *testing.T) {
	for _, g := range goldenResponses {
		t.Run(g.name, func(t *testing.T) {
			var buf bytes.Buffer
			e := NewEmitter(FormatJSON, &buf)
			if err := e.WriteResponse(g.resp); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := strings.TrimRight(buf.String(), "\n"); got != g.json {
				t.Errorf("wire bytes drifted:\n got  %s\n want %s", got, g.json)
			}
			p := NewParser(FormatJSON, bufio.NewReader(strings.NewReader(g.json+"\n")), 1<<20)
			back, err := p.ReadResponse()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, g.resp) {
				t.Errorf("json round trip:\n got  %+v\n want %+v", back, g.resp)
			}
		})
	}
}

// TestBinaryRoundTripMatchesJSON runs the same golden vectors through the
// binary codec and asserts both codecs converge on identical values — the
// substitution property that lets the formats interoperate behind one
// interface.
func TestBinaryRoundTripMatchesJSON(t *testing.T) {
	for _, g := range goldenRequests {
		t.Run("request/"+g.name, func(t *testing.T) {
			var buf bytes.Buffer
			e := NewEmitter(FormatBinary, &buf)
			if err := e.WriteRequest(g.req); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			p := NewParser(FormatBinary, bufio.NewReader(&buf), 1<<20)
			back, err := p.ReadRequest()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, g.req) {
				t.Errorf("binary round trip:\n got  %+v\n want %+v", back, g.req)
			}
		})
	}
	for _, g := range goldenResponses {
		t.Run("response/"+g.name, func(t *testing.T) {
			var buf bytes.Buffer
			e := NewEmitter(FormatBinary, &buf)
			if err := e.WriteResponse(g.resp); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			p := NewParser(FormatBinary, bufio.NewReader(&buf), 1<<20)
			back, err := p.ReadResponse()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, g.resp) {
				t.Errorf("binary round trip:\n got  %+v\n want %+v", back, g.resp)
			}
		})
	}
}

// TestGoldenRetireBinary pins the binary frame of the retire op: magic,
// payload length, op code 5, then the range's two zigzag varints.
func TestGoldenRetireBinary(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(FormatBinary, &buf)
	if err := e.WriteRequest(Request{Op: OpRetire, NS: 100, NSEnd: 125}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []byte{BinaryMagic, 0x05, 0x05, 0xc8, 0x01, 0xfa, 0x01}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("retire frame = % x, want % x", buf.Bytes(), want)
	}
	// A retire cut short is malformed, not a retire of a smaller range.
	p := NewParser(FormatBinary, bufio.NewReader(bytes.NewReader([]byte{BinaryMagic, 0x03, 0x05, 0xc8, 0x01})), 1<<20)
	var mal *MalformedError
	if _, err := p.ReadRequest(); !errors.As(err, &mal) {
		t.Errorf("truncated retire = %v, want *MalformedError", err)
	}
}

// TestBinaryCompactsSparseMasks: the motivating property — a sparse 4 KiB
// mask must shrink dramatically versus its base64 JSON form.
func TestBinaryCompactsSparseMasks(t *testing.T) {
	masks := make([]byte, 4096)
	for i := 128; i < 160; i++ {
		masks[i] = 0xff
	}
	req := Request{Op: OpPublish, Client: 1, Req: 1, Src: 0, Dst: 1, Tag: 2, Seq: 3, Masks: masks}

	var jbuf, bbuf bytes.Buffer
	je := NewEmitter(FormatJSON, &jbuf)
	be := NewEmitter(FormatBinary, &bbuf)
	if err := je.WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	_ = je.Flush()
	if err := be.WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	_ = be.Flush()
	if bbuf.Len()*10 > jbuf.Len() {
		t.Errorf("binary frame %d bytes vs json %d: want >=10x smaller for sparse masks", bbuf.Len(), jbuf.Len())
	}
}

// TestMasksRLERoundTrip drives the RLE coder over adversarial shapes.
func TestMasksRLERoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	random := make([]byte, 3000)
	rng.Read(random)
	alternating := make([]byte, 999)
	for i := range alternating {
		alternating[i] = byte(i % 2)
	}
	cases := [][]byte{
		nil,
		{},
		{0},
		{1},
		{0xff},
		make([]byte, 1<<16),              // all zero
		bytes.Repeat([]byte{0xab}, 4096), // solid repeat
		append(make([]byte, 100), 1, 2, 3),
		random,
		alternating,
		{1, 1, 1, 1, 0, 0, 2, 2, 2, 2, 2, 3},
	}
	for i, masks := range cases {
		enc := AppendMasks(nil, masks)
		dec, rest, err := ConsumeMasks(enc, 1<<20)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("case %d: %d trailing bytes", i, len(rest))
		}
		if len(masks) == 0 {
			if dec != nil {
				t.Fatalf("case %d: empty masks decoded non-nil", i)
			}
			continue
		}
		if !bytes.Equal(dec, masks) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

// TestMasksBombGuard: a declared length over the limit must be refused
// before allocation — a few header bytes may not conjure gigabytes.
func TestMasksBombGuard(t *testing.T) {
	enc := AppendUvarint(nil, 1<<40)
	if _, _, err := ConsumeMasks(enc, 1<<20); err == nil {
		t.Fatal("huge declared mask length accepted")
	}
	// A run overflowing the declared total is also refused.
	bad := AppendUvarint(nil, 4)             // total 4
	bad = AppendUvarint(bad, uint64(8)<<2|0) // zero run of 8
	if _, _, err := ConsumeMasks(bad, 1<<20); err == nil {
		t.Fatal("run overflowing declared length accepted")
	}
}

// TestDetect classifies streams by first byte without consuming it.
func TestDetect(t *testing.T) {
	br := bufio.NewReader(strings.NewReader(`{"op":"stats"}` + "\n"))
	if f, err := Detect(br); err != nil || f != FormatJSON {
		t.Fatalf("Detect(json) = %v, %v", f, err)
	}
	if _, err := NewParser(FormatJSON, br, 1<<10).ReadRequest(); err != nil {
		t.Fatalf("request consumed by Detect: %v", err)
	}

	var buf bytes.Buffer
	e := NewEmitter(FormatBinary, &buf)
	_ = e.WriteRequest(Request{Op: OpStats})
	_ = e.Flush()
	br = bufio.NewReader(&buf)
	if f, err := Detect(br); err != nil || f != FormatBinary {
		t.Fatalf("Detect(binary) = %v, %v", f, err)
	}
	if _, err := NewParser(FormatBinary, br, 1<<10).ReadRequest(); err != nil {
		t.Fatalf("request consumed by Detect: %v", err)
	}
}

// TestBinaryOversizedFrameResync: an oversized binary frame surfaces as
// *FrameError with the stream already resynchronized — the next frame
// parses cleanly.
func TestBinaryOversizedFrameResync(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(FormatBinary, &buf)
	big := Request{Op: OpPublish, Client: 1, Req: 1, Masks: make([]byte, 5000)}
	rng := rand.New(rand.NewSource(7))
	rng.Read(big.Masks) // incompressible, so the frame really is oversized
	if err := e.WriteRequest(big); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteRequest(Request{Op: OpStats}); err != nil {
		t.Fatal(err)
	}
	_ = e.Flush()

	p := NewParser(FormatBinary, bufio.NewReader(&buf), 1<<10)
	_, err := p.ReadRequest()
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("oversized frame error = %v, want *FrameError", err)
	}
	req, err := p.ReadRequest()
	if err != nil || req.Op != OpStats {
		t.Fatalf("stream desynchronized after oversized frame: %+v, %v", req, err)
	}
	if _, err := p.ReadRequest(); err != io.EOF {
		t.Fatalf("trailing read = %v, want io.EOF", err)
	}
}

// TestJSONOversizedFrameResync: same property for the JSON codec, with a
// frame far beyond the old 4×limit drain cap — the regression the
// bounded-chunk drain fixes.
func TestJSONOversizedFrameResync(t *testing.T) {
	limit := 1 << 10
	big := strings.Repeat("A", 10*limit) // 10x the limit: past the old 4x drain cap
	input := `{"op":"publish","masks":"` + big + `"}` + "\n" + `{"op":"stats"}` + "\n"
	p := NewParser(FormatJSON, bufio.NewReader(strings.NewReader(input)), limit)
	_, err := p.ReadRequest()
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("oversized frame error = %v, want *FrameError", err)
	}
	req, err := p.ReadRequest()
	if err != nil || req.Op != OpStats {
		t.Fatalf("stream desynchronized after oversized frame: %+v, %v", req, err)
	}
}

// TestJSONBadBase64IsPayloadError: undecodable base64 in a masks field is
// the typed permanent *PayloadError, not a generic malformed failure.
func TestJSONBadBase64IsPayloadError(t *testing.T) {
	input := `{"op":"publish","client":1,"req":1,"src":0,"dst":1,"tag":0,"seq":0,"masks":"!!not base64!!"}` + "\n"
	p := NewParser(FormatJSON, bufio.NewReader(strings.NewReader(input)), 1<<20)
	_, err := p.ReadRequest()
	var pe *PayloadError
	if !errors.As(err, &pe) {
		t.Fatalf("bad base64 error = %v, want *PayloadError", err)
	}
}

// FuzzBinaryDecode drives arbitrary bytes through the binary parser (both
// directions) and the RLE decoder: garbage must surface as errors, never
// panics or unbounded allocations.
func FuzzBinaryDecode(f *testing.F) {
	// Seed with well-formed frames of every shape.
	for _, g := range goldenRequests {
		var buf bytes.Buffer
		e := NewEmitter(FormatBinary, &buf)
		_ = e.WriteRequest(g.req)
		_ = e.Flush()
		f.Add(buf.Bytes())
	}
	for _, g := range goldenResponses {
		var buf bytes.Buffer
		e := NewEmitter(FormatBinary, &buf)
		_ = e.WriteResponse(g.resp)
		_ = e.Flush()
		f.Add(buf.Bytes())
	}
	f.Add([]byte{BinaryMagic})
	f.Add([]byte{BinaryMagic, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewParser(FormatBinary, bufio.NewReader(bytes.NewReader(data)), 1<<16)
		for i := 0; i < 64; i++ {
			if _, err := p.ReadRequest(); err != nil {
				var fe *FrameError
				var pe *PayloadError
				if errors.As(err, &fe) || errors.As(err, &pe) {
					continue // recoverable; the stream is resynced
				}
				break
			}
		}
		p = NewParser(FormatBinary, bufio.NewReader(bytes.NewReader(data)), 1<<16)
		for i := 0; i < 64; i++ {
			if _, err := p.ReadResponse(); err != nil {
				var fe *FrameError
				var pe *PayloadError
				if errors.As(err, &fe) || errors.As(err, &pe) {
					continue
				}
				break
			}
		}
		if masks, _, err := ConsumeMasks(data, 1<<16); err == nil && len(masks) > 1<<16 {
			t.Fatalf("RLE decoder exceeded its size bound: %d", len(masks))
		}
	})
}
