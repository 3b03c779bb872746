// Package workload provides deterministic generators for model inputs:
// token size streams and parameter sequences. Determinism matters because
// the reference simulator and the equivalent model must consume identical
// token streams for their evolution instants to be comparable bit-exact;
// everything here is a pure function of (seed, k).
package workload

// Hash64 mixes a seed and an index into a well-distributed 64-bit value
// using the SplitMix64 finalizer. It is the only randomness primitive in
// the repository, so every workload is reproducible from its seed.
func Hash64(seed int64, k int) uint64 {
	z := uint64(seed) + uint64(k)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uniform returns a deterministic value in [lo, hi] for iteration k.
func Uniform(seed int64, k int, lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	span := uint64(hi - lo + 1)
	return lo + int64(Hash64(seed, k)%span)
}

// UniformFloat returns a deterministic value in [lo, hi) for iteration k.
func UniformFloat(seed int64, k int, lo, hi float64) float64 {
	frac := float64(Hash64(seed, k)>>11) / float64(1<<53)
	return lo + frac*(hi-lo)
}

// Choice returns a deterministic element of choices for iteration k.
func Choice[T any](seed int64, k int, choices []T) T {
	return choices[Hash64(seed, k)%uint64(len(choices))]
}

// SizeStream returns a token-size generator over [min, min+span).
func SizeStream(seed, min, span int64) func(k int) int64 {
	return func(k int) int64 {
		if span <= 0 {
			return min
		}
		return min + int64(Hash64(seed, k)%uint64(span))
	}
}

// Phase is one segment of a phase-changing stream: Len iterations whose
// values are constant (Span <= 0: always Size — a steady phase) or vary
// per iteration over [Size, Size+Span) (a transient phase).
type Phase struct {
	Len  int
	Size int64
	Span int64
}

// PhaseStream returns a token-size generator that walks the phases in
// order and stays in the last one forever (its Len is then ignored), so
// the stream is total for any k. Phase-changing workloads change the
// execution durations mid-run, which every engine must follow exactly.
func PhaseStream(seed int64, phases []Phase) func(k int) int64 {
	return func(k int) int64 {
		rem := k
		for i, ph := range phases {
			if rem < ph.Len || i == len(phases)-1 {
				if ph.Span <= 0 {
					return ph.Size
				}
				return ph.Size + int64(Hash64(seed+int64(i)*1_000_003, rem)%uint64(ph.Span))
			}
			rem -= ph.Len
		}
		return 0
	}
}
