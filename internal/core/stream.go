package core

import "math/rand"

// The injector's random stream is rand.NewSource(seed)'s, computed one draw at
// a time. Seeding that source runs its Lehmer generator x ← 48271·x mod
// (2³¹−1) some 1,800 steps to fill a 607-word table, and the injector then
// draws a few values: a bit position, an operand. But draw k ≤ 273 of the
// source is vec[334−k] + vec[607−k], two words the seeding wrote and no
// earlier draw has, and word i is rngCooked[i] XOR the generator's states at
// steps 21+3i, 22+3i and 23+3i — the seed times a power of 48271. With the
// powers in a table, a draw costs six modular multiplications. Only a stream
// drawn from more than 273 times (a Probabilistic condition's) seeds the
// table, and skips the draws already made.

const (
	rngLen = 607 // words in math/rand's feedback register
	rngTap = 273 // its tap: draws before the first that reads a word a draw wrote

	lehmerA = 48271     // the seeding generator's multiplier
	lehmerM = 1<<31 - 1 // and modulus
)

// lehmerPow[i] is 48271^(21+3i) mod 2³¹−1: the factor that takes the seed to
// the generator's state at step 21+3i, the first of seeding word i's three.
var lehmerPow = func() (p [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = x * lehmerA % lehmerM
	}
	for i := range p {
		p[i] = x
		x = x * lehmerA % lehmerM * lehmerA % lehmerM * lehmerA % lehmerM
	}
	return p
}()

// rankStream is the random stream of rank's injector in a run whose spec
// seed is seed.
func rankStream(seed int64, rank int) *rand.Rand {
	return rand.New(&lazySource{seed: streamSeed(seed, rank)})
}

// streamSeed is the seed of that stream's source. Reseeding a rand.Rand of
// rankStream's with it gives the same stream as a new one.
func streamSeed(seed int64, rank int) int64 { return seed*1000003 + int64(rank) }

// lazySource is rand.NewSource(seed), value for value, that fills no table
// while it is drawn from at most rngTap times: a world that never reaches its
// trigger — every ladder prefix, every run whose fault site is never executed
// — draws nothing, and a deterministic injection draws a handful.
type lazySource struct {
	seed int64
	// draws counts the values drawn so far.
	draws int
	// src is the seeded source, advanced past the draws made before it, once
	// the stream is drawn from more than rngTap times.
	src rand.Source64
}

func (s *lazySource) Uint64() uint64 {
	if s.src == nil {
		if s.draws < rngTap {
			s.draws++
			x := lehmerSeed(s.seed)
			return uint64(seedWord(x, rngLen-rngTap-s.draws) + seedWord(x, rngLen-s.draws))
		}
		src := rand.NewSource(s.seed).(rand.Source64)
		for i := 0; i < s.draws; i++ {
			src.Uint64()
		}
		s.src = src
	}
	return s.src.Uint64()
}

func (s *lazySource) Int63() int64    { return int64(s.Uint64() & (1<<63 - 1)) }
func (s *lazySource) Seed(seed int64) { s.seed, s.draws, s.src = seed, 0, nil }

// lehmerSeed is the generator's starting state for seed, as math/rand's
// rngSource.Seed reduces it.
func lehmerSeed(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// seedWord is word i of the register math/rand seeds from the generator's
// starting state x.
func seedWord(x uint64, i int) int64 {
	x1 := x * lehmerPow[i] % lehmerM
	x2 := x1 * lehmerA % lehmerM
	x3 := x2 * lehmerA % lehmerM
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ rngCooked[i]
}
