package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The references below are written independently of the kernels: one
// accumulator per output element, terms added in ascending p, and exact
// zeros of a skipped exactly where the kernel under test skips them. They
// start from dst's incoming value, so the accumulating kernels can be held
// to them on a dirty dst as well.

// refAccumAB returns dst0 + a·b for a (m×k), b (k×n), skipping a[i,p] == 0.
func refAccumAB(dst0, a, b []float64, m, k, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := dst0[i*n+j]
			for p := 0; p < k; p++ {
				if av := a[i*k+p]; av != 0 {
					s += av * b[p*n+j]
				}
			}
			out[i*n+j] = s
		}
	}
	return out
}

// refAccumATB returns dst0 + aᵀ·b for a (k×m), b (k×n), skipping a[p,i] == 0.
func refAccumATB(dst0, a, b []float64, k, m, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := dst0[i*n+j]
			for p := 0; p < k; p++ {
				if av := a[p*m+i]; av != 0 {
					s += av * b[p*n+j]
				}
			}
			out[i*n+j] = s
		}
	}
	return out
}

// refABT returns a·bᵀ for a (m×k), b (n×k): a plain dot product from 0.
func refABT(a, b []float64, m, k, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			out[i*n+j] = s
		}
	}
	return out
}

// refShapes covers odd m, n and k off a multiple of four, k below four, a
// k crossing the mmBlockK boundary, and one product above mmParallelFlops.
var refShapes = [][3]int{
	{1, 1, 1}, {1, 3, 5}, {3, 2, 7}, {5, 5, 6}, {7, 9, 9}, {9, 6, 10},
	{8, 9, 64}, {16, 72, 16}, {33, 17, 11}, {3, mmBlockK + 6, 13},
	{mmBlockI + 3, mmBlockK + 5, 35},
	{131, 131, 131},
}

// zeroPattern zeroes a: row r of its logical rows × cols view gets zeros at
// every column c with c%4 == r%5 (r%5 == 4 leaves the row dense, and every
// sixth row is all zero). at(r, c) maps to the storage index.
func zeroPattern(a []float64, rows, cols int, at func(r, c int) int) {
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r%6 == 5 || c%4 == r%5 {
				a[at(r, c)] = 0
			}
		}
	}
}

// bitsEqual compares bit for bit, except that any two NaNs match: Go leaves
// the payload of a NaN produced from two NaN operands unspecified (the
// compiler may commute the operands of an add), so neither the kernels nor
// the references pin it.
func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// withParallelism runs fn with GOMAXPROCS ≥ 2, so products above
// mmParallelFlops take the row-parallel path even on one core.
func withParallelism(fn func()) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	fn()
}

func TestMatMulKernelsBitIdenticalToReferences(t *testing.T) {
	withParallelism(func() {
		rng := rand.New(rand.NewSource(17))
		for _, s := range refShapes {
			m, k, n := s[0], s[1], s[2]
			name := fmt.Sprintf("%dx%dx%d", m, k, n)

			a := Randn(rng, 1, m, k)
			zeroPattern(a.data, m, k, func(r, c int) int { return r*k + c })
			b := Randn(rng, 1, k, n)
			dst := New(m, n)
			dst.Fill(math.NaN()) // a dirty dst must be fully overwritten
			MatMulInto(dst, a, b)
			bitsEqual(t, "MatMulInto "+name, dst.data, refAccumAB(make([]float64, m*n), a.data, b.data, m, k, n))

			at := Randn(rng, 1, k, m)
			zeroPattern(at.data, m, k, func(r, c int) int { return c*m + r })
			dst.Fill(math.NaN())
			MatMulTransAInto(dst, at, b)
			bitsEqual(t, "MatMulTransAInto "+name, dst.data, refAccumATB(make([]float64, m*n), at.data, b.data, k, m, n))

			bt := Randn(rng, 1, n, k)
			dst.Fill(math.NaN())
			MatMulTransBInto(dst, a, bt)
			bitsEqual(t, "MatMulTransBInto "+name, dst.data, refABT(a.data, bt.data, m, k, n))
		}
	})
}

// TestMatMulKernelsZeroSkipSpecialValues: an exact zero in a skips its term,
// so ±Inf or NaN in the matching row of b never reaches the rows of dst
// whose a-value is zero (0·Inf would be NaN), and a −0 already in dst
// survives a row whose every term is skipped. The accumulating kernels are
// called directly on a dst holding −0 and other dirty values.
func TestMatMulKernelsZeroSkipSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, s := range [][3]int{{6, 3, 5}, {6, 9, 7}, {11, 12, 6}} {
		m, k, n := s[0], s[1], s[2]
		name := fmt.Sprintf("%dx%dx%d", m, k, n)
		rng := rand.New(rand.NewSource(int64(m * k * n)))
		a := Randn(rng, 1, m, k)
		zeroPattern(a.data, m, k, func(r, c int) int { return r*k + c })
		at := Randn(rng, 1, k, m)
		zeroPattern(at.data, m, k, func(r, c int) int { return c*m + r })
		b := Randn(rng, 1, k, n)
		// Row p of b carries a special value wherever p%4 == 1: row 1 of a
		// (and of aᵀ) is zero there, the rows with r%5 == 4 are not.
		for p := 1; p < k; p += 4 {
			for j := 0; j < n; j += 2 {
				b.data[p*n+j] = special[(p+j)%len(special)]
			}
		}
		dst0 := make([]float64, m*n)
		for i := range dst0 {
			switch i % 3 {
			case 0:
				dst0[i] = negZero
			case 1:
				dst0[i] = rng.NormFloat64()
			}
		}
		for j := 0; j < n; j++ {
			dst0[5*n+j] = negZero // row 5 of a and aᵀ is all zero
		}

		got := append([]float64(nil), dst0...)
		matMulBlocked(got, a.data, b.data, 0, m, k, n)
		want := refAccumAB(dst0, a.data, b.data, m, k, n)
		bitsEqual(t, "matMulBlocked "+name, got, want)
		for j := 0; j < n; j++ {
			if v := got[n+j]; math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("matMulBlocked %s: row 1 picked up a skipped special value: %v", name, v)
			}
		}
		keepsNegZero(t, "matMulBlocked "+name, got[5*n:6*n])

		got = append(got[:0], dst0...)
		matMulTransAInto(got, at.data, b.data, k, m, n)
		bitsEqual(t, "matMulTransAInto "+name, got, refAccumATB(dst0, at.data, b.data, k, m, n))
		keepsNegZero(t, "matMulTransAInto "+name, got[5*n:6*n])
	}
}

func keepsNegZero(t *testing.T, what string, row []float64) {
	t.Helper()
	for j, v := range row {
		if math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
			t.Fatalf("%s: all-zero row of a lost the −0 in dst at column %d: %v", what, j, v)
		}
	}
}
