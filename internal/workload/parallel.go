package workload

import (
	"sync"
)

// ParallelFor splits the half-open range [0, n) into one contiguous shard
// per worker and runs body(shard, worker, lo, hi) concurrently. Each worker
// accumulates into its own Counters shard; the shards are merged in worker
// order, so the combined counters (and checksums, which merge by XOR) are
// identical for every thread count as long as the body computes a
// shard-local result that depends only on [lo, hi).
//
// This is the SPMD skeleton every multithreaded kernel in the suites is
// built on — the Go analogue of the pthread loops in Phoenix and SPLASH.
func ParallelFor(n, workers int, body func(c *Counters, worker, lo, hi int)) Counters {
	if workers < 1 {
		workers = 1
	}
	if workers > n && n > 0 {
		workers = n
	}
	if n <= 0 {
		return Counters{}
	}
	shards := make([]Counters, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(&shards[w], w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var total Counters
	for i := range shards {
		total.Add(shards[i])
	}
	// One implicit barrier per parallel region.
	total.SyncOps += uint64(workers)
	return total
}

// PRNG is a small deterministic generator (xorshift64*), embedded in
// kernels so results do not depend on math/rand internals.
type PRNG struct {
	state uint64
}

// NewPRNG seeds a generator; a zero seed is remapped to a fixed constant.
func NewPRNG(seed uint64) *PRNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &PRNG{state: seed}
}

// Uint64 returns the next pseudo-random value.
func (p *PRNG) Uint64() uint64 {
	x := p.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	p.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n).
func (p *PRNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(p.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (p *PRNG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Shard returns an independent generator for shard i, so parallel workers
// draw non-overlapping deterministic streams.
func (p *PRNG) Shard(i int) *PRNG {
	return NewPRNG(p.state ^ (uint64(i+1) * 0xBF58476D1CE4E5B9))
}

// Mix folds a float into a checksum in an order-independent way (XOR of the
// value's bit pattern hashed by a finalizer).
func Mix(sum uint64, bits uint64) uint64 {
	z := bits + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return sum ^ (z ^ (z >> 31))
}
