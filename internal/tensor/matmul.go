package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Kernel blocking parameters. Blocks are chosen so one block of b
// (mmBlockK × n doubles for moderate n) and the active rows of dst stay
// resident in L1/L2 while the i loop sweeps over them. Blocking reorders
// only the *traversal* of (i, p) pairs, never the per-element accumulation
// order: for every output element dst[i,j] the partial products are still
// added in ascending p, so blocked results are bit-identical to the naive
// i-k-j kernel.
const (
	mmBlockI = 64  // rows of dst per block
	mmBlockK = 256 // inner-dimension slice per block

	// mmParallelFlops is the m·k·n threshold above which the row-parallel
	// path engages. Training-step matmuls in the simulator are far below
	// it, so worker-pool tasks never nest goroutines; only large
	// evaluation or standalone products fan out.
	mmParallelFlops = 1 << 21

	// mmMinRowsPerTask keeps per-goroutine work coarse enough to amortize
	// scheduling.
	mmMinRowsPerTask = 32
)

// MatMul returns the matrix product a·b for 2-D tensors a (m×k) and b (k×n).
// The kernel is cache-blocked over rows of dst and slices of the inner
// dimension, and partitions by output rows across goroutines for large
// products; both transformations preserve the per-element accumulation
// order, so the result is bit-identical for any block size or parallelism.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions disagree: %v × %v", a.shape, b.shape))
	}
	out := New(m, n)
	matMulDispatch(out.data, a.data, b.data, m, k, n)
	return out
}

// MatMulInto computes dst = a·b, reusing dst's storage. dst must be m×n.
//
//machlint:noalias dst,a dst,b
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	dst.Zero()
	matMulDispatch(dst.data, a.data, b.data, m, k, n)
}

// matMulDispatch routes to the serial or row-parallel blocked kernel.
// dst must be zeroed. The serial path is taken without materializing a
// closure so the training hot path stays allocation-free.
func matMulDispatch(dst, a, b []float64, m, k, n int) {
	if !shouldRowParallel(m, m*k*n) {
		matMulBlocked(dst, a, b, 0, m, k, n)
		return
	}
	rowParallel(m, func(i0, i1 int) {
		matMulBlocked(dst, a, b, i0, i1, k, n)
	})
}

// matMulBlocked accumulates dst rows [i0, i1) of a·b with i/k blocking.
//
//machlint:allocfree
func matMulBlocked(dst, a, b []float64, i0, i1, k, n int) {
	for ib := i0; ib < i1; ib += mmBlockI {
		ie := ib + mmBlockI
		if ie > i1 {
			ie = i1
		}
		for pb := 0; pb < k; pb += mmBlockK {
			pe := pb + mmBlockK
			if pe > k {
				pe = k
			}
			for i := ib; i < ie; i++ {
				accumRow(dst[i*n:(i+1)*n], a[i*k:(i+1)*k], 1, b, pb, pe)
			}
		}
	}
}

// accumRow adds a[p·as]·b[p·n : (p+1)·n] into drow (n = len(drow)) for every
// p in [p, pe) whose a-value is not exactly zero, in ascending p. It gathers
// four such terms and folds them into one register-held partial sum per
// element, so each dst element is loaded and stored once per four
// multiply-adds instead of once per multiply-add. Each element still adds
// exactly the terms of the reference i-k-j kernel, one at a time in the same
// order, so the result is bit-identical to it.
//
//machlint:allocfree
func accumRow(drow, a []float64, as int, b []float64, p, pe int) {
	n := len(drow)
	for {
		var v [4]float64
		var q [4]int
		c := 0
		for ; p < pe && c < 4; p++ {
			//machlint:allow floateq sparsity fast path: exact zero rows multiply to exactly zero, skipping them is bit-identical
			if av := a[p*as]; av != 0 {
				v[c], q[c] = av, p
				c++
			}
		}
		if c < 4 {
			for t := 0; t < c; t++ {
				av, brow := v[t], b[q[t]*n:][:n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
			return
		}
		v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
		b0 := b[q[0]*n:][:n]
		b1 := b[q[1]*n:][:n]
		b2 := b[q[2]*n:][:n]
		b3 := b[q[3]*n:][:n]
		for j := range drow {
			d := drow[j]
			d += v0 * b0[j]
			d += v1 * b1[j]
			d += v2 * b2[j]
			d += v3 * b3[j]
			drow[j] = d
		}
	}
}

// MatMulTransA returns aᵀ·b for a (k×m) and b (k×n), producing m×n. This is
// the backward-pass form used when computing weight gradients.
func MatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := transAShape(a, b)
	out := New(m, n)
	matMulTransAInto(out.data, a.data, b.data, k, m, n)
	return out
}

// MatMulTransAInto computes dst = aᵀ·b, reusing dst's storage. dst must be
// m×n for a (k×m) and b (k×n).
//
//machlint:noalias dst,a dst,b
func MatMulTransAInto(dst, a, b *Tensor) {
	k, m, n := transAShape(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	dst.Zero()
	matMulTransAInto(dst.data, a.data, b.data, k, m, n)
}

func transAShape(a, b *Tensor) (k, m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA requires 2-D operands, got %v and %v", a.shape, b.shape))
	}
	k, m = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimensions disagree: %vᵀ × %v", a.shape, b.shape))
	}
	return k, m, b.shape[1]
}

// matMulTransAInto accumulates dst += aᵀ·b. Row i of dst gathers column i
// of a (stride m) against the rows of b, in ascending p with exact zeros
// skipped, so every element adds the same terms in the same order as the
// p-i-j reference kernel. The form stays serial; it is only used on small
// backward-pass products.
//
//machlint:noalias dst,a dst,b
//machlint:allocfree
func matMulTransAInto(dst, a, b []float64, k, m, n int) {
	for i := 0; i < m; i++ {
		accumRow(dst[i*n:(i+1)*n], a[i:], m, b, 0, k)
	}
}

// MatMulTransB returns a·bᵀ for a (m×k) and b (n×k), producing m×n. This is
// the backward-pass form used when propagating gradients through a dense
// layer.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := transBShape(a, b)
	out := New(m, n)
	matMulTransBDispatch(out.data, a.data, b.data, m, k, n)
	return out
}

// MatMulTransBInto computes dst = a·bᵀ, reusing dst's storage. dst must be
// m×n for a (m×k) and b (n×k).
//
//machlint:noalias dst,a dst,b
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := transBShape(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	matMulTransBDispatch(dst.data, a.data, b.data, m, k, n)
}

func transBShape(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB requires 2-D operands, got %v and %v", a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions disagree: %v × %vᵀ", a.shape, b.shape))
	}
	return m, k, b.shape[0]
}

func matMulTransBDispatch(dst, a, b []float64, m, k, n int) {
	if !shouldRowParallel(m, m*k*n) {
		matMulTransBRows(dst, a, b, 0, m, k, n)
		return
	}
	rowParallel(m, func(i0, i1 int) {
		matMulTransBRows(dst, a, b, i0, i1, k, n)
	})
}

// matMulTransBRows writes dst rows [i0, i1) of a·bᵀ. Every element is an
// independent dot product accumulated in ascending p, so row partitioning
// and tiling cannot change results. Pairs of rows are computed against four
// b rows at a time: eight independent accumulation chains, each fed by loads
// shared with three others. Leftover rows and columns take the single-chain
// dot product. Each element is written exactly once, so dst needs no
// zeroing.
//
//machlint:allocfree
func matMulTransBRows(dst, a, b []float64, i0, i1, k, n int) {
	i := i0
	for ; i+2 <= i1; i += 2 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		d0 := dst[i*n : (i+1)*n]
		d1 := dst[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for p, x0 := range a0 {
				x1 := a1[p]
				y0, y1, y2, y3 := b0[p], b1[p], b2[p], b3[p]
				s00 += x0 * y0
				s01 += x0 * y1
				s02 += x0 * y2
				s03 += x0 * y3
				s10 += x1 * y0
				s11 += x1 * y1
				s12 += x1 * y2
				s13 += x1 * y3
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			d0[j] = dot(a0, brow)
			d1[j] = dot(a1, brow)
		}
	}
	for ; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = dot(arow, b[j*k:(j+1)*k])
		}
	}
}

// dot returns Σ_p a[p]·b[p] accumulated in one chain in ascending p.
func dot(a, b []float64) float64 {
	s := 0.0
	for p, av := range a {
		s += av * b[p]
	}
	return s
}

// shouldRowParallel reports whether a product of m output rows and the given
// flop count is worth fanning out across cores.
func shouldRowParallel(m, flops int) bool {
	return flops >= mmParallelFlops && runtime.GOMAXPROCS(0) > 1 && m >= 2*mmMinRowsPerTask
}

// rowParallel invokes fn over a partition of [0, m) into contiguous row
// ranges, one goroutine per range. Row ranges touch disjoint slices of dst,
// so the result is identical to the serial call fn(0, m) regardless of
// scheduling.
func rowParallel(m int, fn func(i0, i1 int)) {
	tasks := runtime.GOMAXPROCS(0)
	if max := m / mmMinRowsPerTask; tasks > max {
		tasks = max
	}
	chunk := (m + tasks - 1) / tasks
	var wg sync.WaitGroup
	for i0 := 0; i0 < m; i0 += chunk {
		i1 := i0 + chunk
		if i1 > m {
			i1 = m
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			fn(i0, i1)
		}(i0, i1)
	}
	wg.Wait()
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D requires a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}
