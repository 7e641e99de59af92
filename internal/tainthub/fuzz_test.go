package tainthub

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"chaser/internal/tainthub/codec"
	"chaser/internal/wal"
)

// FuzzDecodeRequest drives arbitrary bytes through the wire-protocol
// decoder and the request dispatcher, for both codecs. The server parses
// frames from arbitrary TCP peers, so the invariant is: garbage may
// produce errors and error responses, never a panic, and the recoverable
// (oversized frame, undecodable payload) vs fatal (malformed, disconnect)
// distinction must hold for every error the parser can produce.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"op":"publish","src":0,"dst":1,"tag":2,"seq":3,"masks":"qg=="}`))
	f.Add([]byte(`{"op":"poll","src":1,"dst":0,"tag":0,"seq":0}` + "\n" + `{"op":"stats"}`))
	f.Add([]byte(`{"op":"publish","client":7,"req":9,"masks":"!!not base64!!"}`))
	f.Add([]byte(`{"op":"bogus"}`))
	f.Add([]byte(`{"op":123}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	f.Add([]byte("\x00\xff\xfe"))
	f.Add([]byte(""))
	f.Add([]byte("\xc7\x02\x03\x01")) // binary magic + tiny frame
	f.Add([]byte(`{"op":"retire","ns":3,"ns_end":9}`))
	f.Add([]byte("\xc7\x03\x05\x06\x12")) // binary retire [3, 9)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []codec.Format{codec.FormatJSON, codec.FormatBinary} {
			s := &Server{hub: NewLocal(), maxFrame: 1 << 16, logf: func(string, ...any) {}}
			parser := codec.NewParser(format, bufio.NewReader(bytes.NewReader(data)), s.maxFrame)
			for i := 0; i < 64; i++ { // bounded: a frame is >= 1 byte
				req, err := parser.ReadRequest()
				if err != nil {
					var fe *codec.FrameError
					var pe *codec.PayloadError
					if errors.As(err, &fe) || errors.As(err, &pe) {
						continue // recoverable: the parser resynced the stream
					}
					_ = isMalformed(err)
					_ = isTimeout(err)
					break
				}
				resp := s.handle(req)
				if _, err := json.Marshal(resp); err != nil {
					t.Fatalf("dispatch produced unmarshalable response: %v", err)
				}
			}
		}
	})
}

// FuzzWALReplay opens a durable hub over arbitrary log bytes. Crash
// recovery reads whatever a dead process left on disk, so the invariant is:
// torn tails and bit flips either recover a prefix of the state or surface
// as *CorruptError with the file left as it was — never panic, and never
// leave the reopened hub unusable when recovery claims success.
func FuzzWALReplay(f *testing.F) {
	// Seed with a log produced by a real hub: a compacted head, then a tail.
	seedPath := filepath.Join(f.TempDir(), "seed.wal")
	h, err := OpenDurable(seedPath, DurableConfig{})
	if err != nil {
		f.Fatal(err)
	}
	id := ReqID{Client: 1, Seq: 1}
	if err := h.Publish(id, Key{Src: 0, Dst: 1, Tag: 2}, 0, []uint8{0xaa, 0x55}); err != nil {
		f.Fatal(err)
	}
	if err := h.Snapshot(); err != nil {
		f.Fatal(err)
	}
	head := int(h.WALSize())
	if err := h.Publish(ReqID{Client: 1, Seq: 2}, Key{Src: 1, Dst: 0, Tag: 3}, 4, []uint8{1}); err != nil {
		f.Fatal(err)
	}
	if _, _, err := h.Poll(ReqID{Client: 2, Seq: 1}, Key{Src: 0, Dst: 1, Tag: 2}, 0); err != nil {
		f.Fatal(err)
	}
	if err := h.Publish(ReqID{Client: 1, Seq: 3}, Key{Src: 2, Dst: 3, Tag: 1, NS: 5}, 0, []uint8{7}); err != nil {
		f.Fatal(err)
	}
	if err := h.Retire(5, 6); err != nil {
		f.Fatal(err)
	}
	if err := h.Abandon(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), log...)
	flipped[head/2] ^= 0x10
	// Version 3's header carried a generation after the version byte.
	v3 := wal.AppendFrame(nil, le.AppendUint64(append(le.AppendUint32([]byte{walRecHeader}, walMagic), 3), 2))
	v3 = append(v3, log[wal.HeaderSize+len(encodeWALHeader()):]...)
	f.Add(log)                          // compacted head plus a tail
	f.Add(log[:head+(len(log)-head)/2]) // torn tail
	f.Add(log[:len(log)-3])             // torn inside the retire record
	f.Add(flipped)                      // a byte flipped in the head
	f.Add(v3)                           // another version
	f.Add([]byte("garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "hub.wal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(path, DurableConfig{})
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("recovery failed with untyped error: %v", err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
				t.Fatalf("refused log was modified: %x (%v)", after, err)
			}
			return
		}
		// Recovery succeeded: the hub must be fully usable.
		k := Key{Src: 9, Dst: 8, Tag: 7}
		if err := d.Publish(ReqID{Client: 99, Seq: 1}, k, 0, []uint8{3}); err != nil {
			t.Fatalf("publish on recovered hub: %v", err)
		}
		if masks, ok, err := d.Poll(ReqID{Client: 99, Seq: 2}, k, 0); err != nil || !ok || masks[0] != 3 {
			t.Fatalf("poll on recovered hub: masks=%v ok=%v err=%v", masks, ok, err)
		}
		if err := d.Retire(0, 1); err != nil {
			t.Fatalf("retire on recovered hub: %v", err)
		}
		if _, ok, _ := d.Poll(ReqID{Client: 99, Seq: 3}, k, 0); ok {
			t.Fatal("poll after retire on recovered hub hit")
		}
		_ = d.Stats()
		if err := d.Close(); err != nil {
			t.Fatalf("close recovered hub: %v", err)
		}
		// And a second recovery from its own output must succeed cleanly.
		d2, err := OpenDurable(path, DurableConfig{})
		if err != nil {
			t.Fatalf("reopen after clean close: %v", err)
		}
		_ = d2.Abandon()
	})
}
