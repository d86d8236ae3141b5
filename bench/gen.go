package main

// rng is splitmix64: deterministic, allocation-free, and independent of
// math/rand's version-dependent streams, so a seed names the same inputs
// on every Go release.
type rng struct{ s uint64 }

// newRng derives an independent stream from the run seed and a stream
// number (one per client / per generator), so adding a consumer never
// shifts the inputs another one sees.
func newRng(seed, stream uint64) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 0x2545F4914F6CDD1D}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
