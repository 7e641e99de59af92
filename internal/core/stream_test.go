package core

import (
	"math"
	"math/rand"
	"testing"
)

// sameStream fails unless lazySource gives rand.NewSource(seed)'s values,
// draw for draw, over n draws, Int63 and Uint64 interleaved by the pattern
// the seed picks.
func sameStream(t *testing.T, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	got := &lazySource{seed: seed}
	pattern := uint64(seed) * 0x9e3779b97f4a7c15
	for k := 0; k < n; k++ {
		if pattern>>(k%64)&1 == 0 {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d: Int63 draw %d is %d, math/rand's %d", seed, k+1, g, w)
			}
		} else if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d: Uint64 draw %d is %d, math/rand's %d", seed, k+1, g, w)
		}
	}
}

// TestInjectorStreamMatchesMathRand: the injector's stream, computed draw by
// draw, is math/rand's for 100,000 and more seeds — zero, negative ones, the
// multiples of the seeding generator's modulus 2³¹−1 and their neighbours,
// the extremes of int64, and the campaign's seed*1000003+rank — through the
// computed draws and, every 1,000th seed, 700 draws into the seeded fallback.
func TestInjectorStreamMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 2, -2, 89482311, -89482311, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for _, k := range []int64{1, 2, 3, 1000, 1 << 20, math.MaxInt64 / m} {
		for _, d := range []int64{-1, 0, 1} {
			seeds = append(seeds, k*m+d, -k*m+d)
		}
	}
	for seed := int64(0); seed < 2000; seed++ {
		for rank := int64(0); rank < 4; rank++ {
			seeds = append(seeds, seed*1000003+rank)
		}
	}
	gen := rand.New(rand.NewSource(1))
	for len(seeds) < 100_000 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for i, seed := range seeds {
		n := rngTap + 3
		if i%1000 == 0 || i < 40 {
			n = 700
		}
		sameStream(t, seed, n)
	}
}

// TestInjectorStreamThroughRand: a rand.Rand over the stream — what the
// injector draws with — gives what one over math/rand's source gives, and
// reseeding starts the computed draws again.
func TestInjectorStreamThroughRand(t *testing.T) {
	for _, seed := range []int64{41 * 1000003, -7, 1 << 40} {
		want, got := rand.New(rand.NewSource(seed)), rand.New(&lazySource{seed: 3})
		got.Seed(seed)
		for k := 0; k < 400; k++ {
			if w, g := want.Intn(64+k), got.Intn(64+k); w != g {
				t.Fatalf("seed %d: Intn draw %d is %d, math/rand's %d", seed, k, g, w)
			}
		}
	}
}

// FuzzInjectorStream: for any seed and any number of draws, the stream is
// math/rand's.
func FuzzInjectorStream(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(41*1000003), uint16(274))
	f.Add(int64(math.MinInt64), uint16(700))
	f.Add(int64(1<<31-1), uint16(273))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		sameStream(t, seed, int(draws%2048))
	})
}

// BenchmarkInjectorStream prices what the injector pays for its stream: a
// seeded source and the one Intn that picks a bit.
func BenchmarkInjectorStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rand.New(&lazySource{seed: int64(i)*1000003 + 1}).Intn(64)
	}
}
