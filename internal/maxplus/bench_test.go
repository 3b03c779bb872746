package maxplus

import "testing"

// BenchmarkMaxPlus measures the matrix primitive of the recurrence form
// (7)-(10); the root package's BenchmarkMaxPlus/otimes measures the
// scalar product that ComputeInstant applies per arc.
func BenchmarkMaxPlus(b *testing.B) {
	b.Run("matrix-apply-16", func(b *testing.B) {
		m := NewMatrix(16, 16)
		for i := 0; i < 16; i++ {
			for j := 0; j <= i; j++ {
				m.Set(i, j, T(i+j))
			}
		}
		v := NewVector(16)
		for i := range v {
			v[i] = T(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v = m.Apply(v)
		}
	})
}
