package workload

import "testing"

func TestHash64Deterministic(t *testing.T) {
	if Hash64(1, 5) != Hash64(1, 5) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1, 5) == Hash64(1, 6) {
		t.Fatal("Hash64 index-insensitive")
	}
	if Hash64(1, 5) == Hash64(2, 5) {
		t.Fatal("Hash64 seed-insensitive")
	}
}

func TestHash64Distribution(t *testing.T) {
	// Crude balance check: the top bit should be ~50/50 over many draws.
	ones := 0
	const n = 10000
	for k := 0; k < n; k++ {
		if Hash64(42, k)>>63 == 1 {
			ones++
		}
	}
	if ones < n*4/10 || ones > n*6/10 {
		t.Fatalf("top-bit balance %d/%d", ones, n)
	}
}

func TestUniform(t *testing.T) {
	for k := 0; k < 1000; k++ {
		v := Uniform(3, k, 10, 20)
		if v < 10 || v > 20 {
			t.Fatalf("Uniform out of range: %d", v)
		}
	}
	if Uniform(3, 0, 7, 7) != 7 {
		t.Fatal("degenerate range")
	}
	if Uniform(3, 0, 9, 5) != 9 {
		t.Fatal("inverted range should return lo")
	}
}

func TestUniformFloat(t *testing.T) {
	for k := 0; k < 1000; k++ {
		v := UniformFloat(4, k, 0.5, 1.5)
		if v < 0.5 || v >= 1.5 {
			t.Fatalf("UniformFloat out of range: %v", v)
		}
	}
}

func TestChoice(t *testing.T) {
	choices := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for k := 0; k < 100; k++ {
		seen[Choice(5, k, choices)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Choice never picked some elements: %v", seen)
	}
	if Choice(5, 9, choices) != Choice(5, 9, choices) {
		t.Fatal("Choice not deterministic")
	}
}

func TestSizeStream(t *testing.T) {
	f := SizeStream(7, 100, 50)
	for k := 0; k < 500; k++ {
		v := f(k)
		if v < 100 || v >= 150 {
			t.Fatalf("size out of range: %d", v)
		}
	}
	g := SizeStream(7, 100, 0)
	if g(3) != 100 {
		t.Fatal("zero span should return min")
	}
	if f(9) != SizeStream(7, 100, 50)(9) {
		t.Fatal("SizeStream not deterministic")
	}
}

// TestPhaseStream pins the phase-walk semantics the scenarios rely on.
func TestPhaseStream(t *testing.T) {
	s := PhaseStream(1, []Phase{
		{Len: 3, Size: 10},
		{Len: 2, Size: 50, Span: 5},
		{Len: 1, Size: 7},
	})
	for k := 0; k < 3; k++ {
		if s(k) != 10 {
			t.Fatalf("s(%d) = %d, want 10", k, s(k))
		}
	}
	for k := 3; k < 5; k++ {
		if v := s(k); v < 50 || v >= 55 {
			t.Fatalf("s(%d) = %d, want in [50,55)", k, v)
		}
	}
	// The last phase is sticky.
	for k := 5; k < 20; k++ {
		if s(k) != 7 {
			t.Fatalf("s(%d) = %d, want 7", k, s(k))
		}
	}
	if s(1) != 10 || s(3) != s(3) {
		t.Fatal("stream not deterministic")
	}
}
