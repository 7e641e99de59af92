package server

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeSpec drives arbitrary bytes through the submission decoder.
// Specs arrive from arbitrary HTTP clients, so the invariant mirrors the
// hub's FuzzDecodeRequest: garbage may produce *SpecError, oversized
// payloads *SpecSizeError — never a panic, never an untyped error, and an
// accepted spec must satisfy every structural bound the validator promises.
func FuzzDecodeSpec(f *testing.F) {
	f.Add([]byte(`{"app":"kmeans","runs":100,"seed":42}`))
	f.Add([]byte(`{"app":"matvec","runs":1,"seed":-1,"bits":64,"shards":4096,"trace":true}`))
	f.Add([]byte(`{"tenant":"team-a","app":"lud","runs":50,"seed":7,"parallel":8,"run_timeout_ms":1000}`))
	f.Add([]byte(`{"app":"","runs":0}`))
	f.Add([]byte(`{"app":"UPPER CASE","runs":10,"seed":1}`))
	f.Add([]byte(`{"app":"kmeans","runs":-5,"seed":1}`))
	f.Add([]byte(`{"app":"kmeans","runs":2000000,"seed":1}`))
	f.Add([]byte(`{"runs":"ten"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	f.Add([]byte("\x00\xff\xfe"))
	f.Add([]byte(""))
	f.Add(bytes.Repeat([]byte("a"), 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		// A tiny limit makes the oversize path reachable for the fuzzer
		// without multi-KiB inputs.
		sp, err := DecodeSpec(bytes.NewReader(data), 256)
		if err != nil {
			var se *SpecError
			var sze *SpecSizeError
			switch {
			case errors.As(err, &sze):
				if len(data) <= 256 {
					t.Fatalf("size error for %d-byte payload under the limit", len(data))
				}
			case errors.As(err, &se):
				// Malformed or structurally invalid: expected.
			default:
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Accepted: every validator bound must hold, and normalization must
		// be idempotent and keep the spec valid.
		if sp.Runs < 1 || sp.Runs > MaxRuns || sp.Shards < 0 || sp.Shards > MaxShards {
			t.Fatalf("accepted spec out of bounds: %+v", sp)
		}
		n := sp.normalize()
		if err := n.validate(); err != nil {
			t.Fatalf("normalized spec fails validation: %v", err)
		}
		if n.Shards < 1 || n.Shards > n.Runs {
			t.Fatalf("normalize produced bad shard count: %+v", n)
		}
		if n2 := n.normalize(); n2 != n {
			t.Fatalf("normalize not idempotent: %+v vs %+v", n, n2)
		}
		// Every shard window must be non-empty, contiguous and cover [0,Runs).
		prev := 0
		for i := 0; i < n.Shards; i++ {
			lo, hi := n.shardRange(i)
			if lo != prev || hi <= lo {
				t.Fatalf("shard %d window [%d,%d) breaks coverage at %d", i, lo, hi, prev)
			}
			prev = hi
		}
		if prev != n.Runs {
			t.Fatalf("shards cover [0,%d), want [0,%d)", prev, n.Runs)
		}
	})
}
