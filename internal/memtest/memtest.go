// Package memtest weighs memory for the tests that bound what the simulator
// keeps alive or allocates.
package memtest

import "runtime"

// Drain empties every sync.Pool of the process. A pool keeps what it holds
// through one collection, in its victim cache, and drops it in the next, so it
// takes two: after one, pooled run sessions — a platform, a Chaser and a
// world shell each — still count as live heap, and the next collection, in
// the middle of whatever a test weighs, frees them.
func Drain() {
	runtime.GC()
	runtime.GC()
}

// Live returns the live heap once the pools are drained.
func Live() uint64 {
	Drain()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Allocated returns the bytes f allocates. It drains nothing: what f takes
// from a pool instead of allocating is part of what it costs.
func Allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
