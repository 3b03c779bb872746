// Package maxplus implements the (max,+) algebra used by the dynamic
// computation method to describe evolution instants of performance models.
//
// The algebra works over the set R ∪ {ε} where ε = -∞. Its two operators
// are ⊕ (max), which reflects synchronization among processes, and
// ⊗ (conventional addition), which expresses a time lag according to a
// specific duration. ε is the identity (zero) element of ⊕ and absorbing
// for ⊗; e = 0 is the identity (unit) element of ⊗.
//
// Scalars are fixed-point times (int64 ticks). The package's test files
// add vectors, matrices, Karp's maximum cycle mean and the linear
// recurrence form
//
//	X(k) = A(k,0)⊗X(k) ⊕ A(k,1)⊗X(k-1) ⊕ B(k,0)⊗U(k)
//	Y(k) = C(k,0)⊗X(k)
//
// used by the paper (equations (7)-(10)): the matrix form of a derived
// graph, the second oracle of the graph evaluator.
package maxplus

import (
	"fmt"
	"math"
	"strconv"
)

// T is a (max,+) scalar: a time instant or duration measured in integer
// ticks, or Epsilon (-∞), the neutral element of ⊕.
type T int64

// Epsilon is ε = -∞, the zero element of the (max,+) semiring: x ⊕ ε = x
// and x ⊗ ε = ε. It marks "no event / never".
const Epsilon T = math.MinInt64

// E is e = 0, the unit element of ⊗: x ⊗ e = x.
const E T = 0

// Top is the largest representable instant. It is useful as an initial
// value when folding with Min.
const Top T = math.MaxInt64

// IsEpsilon reports whether x is ε.
func (x T) IsEpsilon() bool { return x == Epsilon }

// Oplus returns x ⊕ y = max(x, y), the synchronization operator.
func Oplus(x, y T) T {
	if x > y {
		return x
	}
	return y
}

// OplusN folds ⊕ over any number of scalars; OplusN() = ε.
func OplusN(xs ...T) T {
	acc := Epsilon
	for _, x := range xs {
		if x > acc {
			acc = x
		}
	}
	return acc
}

// Otimes returns x ⊗ y = x + y, the time-lag operator, with ε absorbing:
// ε ⊗ y = x ⊗ ε = ε. The addition saturates instead of wrapping so that
// very large instants stay ordered.
func Otimes(x, y T) T {
	if x == Epsilon || y == Epsilon {
		return Epsilon
	}
	s := x + y
	// Saturate on overflow: operands have the same sign and the result
	// flipped sign.
	if x > 0 && y > 0 && s < 0 {
		return Top
	}
	if x < 0 && y < 0 && s >= 0 {
		return Epsilon + 1 // most negative finite value
	}
	return s
}

// OtimesN folds ⊗ over any number of scalars; OtimesN() = e.
func OtimesN(xs ...T) T {
	acc := E
	for _, x := range xs {
		acc = Otimes(acc, x)
	}
	return acc
}

// Min returns the conventional minimum of x and y, treating ε as smaller
// than everything. It is not a semiring operation but is convenient for
// trace analysis.
func Min(x, y T) T {
	if x < y {
		return x
	}
	return y
}

// String formats the scalar, rendering ε as "ε".
func (x T) String() string {
	if x == Epsilon {
		return "ε"
	}
	return strconv.FormatInt(int64(x), 10)
}

// GoString implements fmt.GoStringer for debugging output.
func (x T) GoString() string {
	if x == Epsilon {
		return "maxplus.Epsilon"
	}
	return fmt.Sprintf("maxplus.T(%d)", int64(x))
}
