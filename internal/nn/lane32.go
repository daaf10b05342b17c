package nn

import (
	"fmt"
	"math"

	"github.com/mach-fl/mach/internal/tensor"
)

// Lane32 executes the float32 compute lane (DESIGN.md §10): forward/backward
// passes run entirely in float32 over pooled flat buffers, while every
// aggregation boundary stays float64 — master weights, the SGD update, the
// loss, and the gradient squared norm that feeds MACH sampling. One Lane32
// trains one device at a time; a worker reloads it from the edge model for
// each local update.
//
// Numeric contract:
//
//   - Master weights are float64. Each TrainStep applies w64 -= lr·float64(g32)
//     and re-rounds the float32 compute copy from the master, so optimizer
//     arithmetic and the parameter vectors exchanged with edge/cloud
//     aggregation never accumulate float32 rounding.
//   - Losses and squared gradient norms are accumulated in float64.
//   - Everything in between — matmuls, im2col, activations, batch-norm
//     normalization — is float32, with batch statistics reduced in float64.
//
// Lane32 is deterministic: given the same loaded params and inputs it
// produces bit-identical float32 results regardless of how work is scheduled
// around it (all execution is serial inside TrainStep). It is not safe for
// concurrent use.
type Lane32 struct {
	name      string
	ops       []lane32Op
	paramLen  int
	sampleLen int
	classes   int
	batch     int // batch size the pooled buffers are currently sized for

	master []float64 // f64 master weights, Params() layout
	params []float32 // f32 compute copy of master
	grads  []float32 // f32 gradient accumulator

	inBuf        []float32 // network input, [batch][sampleLen]
	gradA, gradB []float32 // ping-pong gradient buffers, B·maxLen each

	// Shared serial scratch (TrainStep never runs ops concurrently).
	dw, dcols                          []float32
	statMean, statVar, sumDxh, sumDxhX []float64
	expRow                             []float64
}

type lane32Kind uint8

const (
	laneOpDense lane32Kind = iota
	laneOpConv
	laneOpReLU
	laneOpPool
	laneOpBN
)

// lane32Op is one compiled layer. inRef aliases the previous op's outBuf (or
// the lane input buffer), which doubles as the cached forward input for
// backward.
type lane32Op struct {
	kind lane32Kind
	name string

	inLen, outLen int // per-sample element counts

	wOff, bOff int // flat param offsets (dense/conv: w,b; bn: gamma,beta)
	in, out    int // dense dims

	geom   tensor.ConvGeom
	outC   int
	cr, sp int // conv: im2col rows (InC·K·K) and spatial size (OutH·OutW)

	c, h, w int // pool input dims

	features int
	mom, eps float64 // bn hyperparameters copied from the layer

	outBuf []float32
	inRef  []float32
	cols   []float32 // conv: cached column matrices, [image][cr·sp]
	argmax []int32   // pool: flat input index per output element
	xhat   []float32 // bn: cached normalized activations
	std    []float64 // bn: batch std, [features]
	// bn running statistics (float64, excluded from the parameter vector
	// exactly like BatchNorm1D). They live with the lane: callers that reuse
	// one lane across logical devices treat them as ephemeral, the known
	// federated batch-norm caveat documented on BatchNorm1D.
	runMean, runVar []float64
}

// NewLane32 compiles net's layer stack into a float32 executor. It returns
// an error for layer types the lane does not support (e.g. Dropout, whose RNG
// stream is owned by the f64 layer).
func NewLane32(net *Network) (*Lane32, error) {
	l := &Lane32{name: net.Name()}
	off := 0
	var shape []int // per-sample shape, nil until anchored by a Dense or Conv2D
	prod := func() int {
		n := 1
		for _, d := range shape {
			n *= d
		}
		return n
	}
	maxDW, maxDcols, maxF := 0, 0, 0
	for _, layer := range net.Layers() {
		lOff := off
		for _, p := range layer.Params() {
			off += p.Value.Len()
		}
		switch t := layer.(type) {
		case *Flatten:
			// Lane data is already flat and contiguous; flattening is the
			// identity and compiles to nothing.
			if shape != nil {
				shape = []int{prod()}
			}
		case *Dense:
			if shape != nil && prod() != t.in {
				return nil, fmt.Errorf("nn: Lane32: %s expects %d inputs, previous layer yields %d", t.name, t.in, prod())
			}
			l.ops = append(l.ops, lane32Op{
				kind: laneOpDense, name: t.name,
				in: t.in, out: t.out, wOff: lOff, bOff: lOff + t.out*t.in,
				inLen: t.in, outLen: t.out,
			})
			shape = []int{t.out}
		case *Conv2D:
			g := t.geom
			if shape == nil {
				shape = []int{g.InC, g.InH, g.InW}
			} else if len(shape) != 3 || shape[0] != g.InC || shape[1] != g.InH || shape[2] != g.InW {
				return nil, fmt.Errorf("nn: Lane32: %s expects input [%d %d %d], previous layer yields %v", t.name, g.InC, g.InH, g.InW, shape)
			}
			cr, sp := g.InC*g.K*g.K, g.OutH()*g.OutW()
			l.ops = append(l.ops, lane32Op{
				kind: laneOpConv, name: t.name,
				geom: g, outC: t.outC, cr: cr, sp: sp,
				wOff: lOff, bOff: lOff + t.outC*cr,
				inLen: g.InC * g.InH * g.InW, outLen: t.outC * sp,
			})
			shape = []int{t.outC, g.OutH(), g.OutW()}
			if t.outC*cr > maxDW {
				maxDW = t.outC * cr
			}
			if cr*sp > maxDcols {
				maxDcols = cr * sp
			}
		case *ReLU:
			if shape == nil {
				return nil, fmt.Errorf("nn: Lane32: %s before any shape-defining layer", t.name)
			}
			n := prod()
			l.ops = append(l.ops, lane32Op{kind: laneOpReLU, name: t.name, inLen: n, outLen: n})
		case *MaxPool2:
			if len(shape) != 3 {
				return nil, fmt.Errorf("nn: Lane32: %s needs a [C H W] input, have %v", t.name, shape)
			}
			c, h, w := shape[0], shape[1], shape[2]
			if h%2 != 0 || w%2 != 0 {
				return nil, fmt.Errorf("nn: Lane32: %s requires even H and W, got %dx%d", t.name, h, w)
			}
			l.ops = append(l.ops, lane32Op{
				kind: laneOpPool, name: t.name,
				c: c, h: h, w: w,
				inLen: c * h * w, outLen: c * (h / 2) * (w / 2),
			})
			shape = []int{c, h / 2, w / 2}
		case *BatchNorm1D:
			if shape == nil || prod() != t.features {
				return nil, fmt.Errorf("nn: Lane32: %s expects %d features, have %v", t.name, t.features, shape)
			}
			op := lane32Op{
				kind: laneOpBN, name: t.name,
				features: t.features, mom: t.momentum, eps: t.epsilon,
				wOff: lOff, bOff: lOff + t.features,
				inLen: t.features, outLen: t.features,
				std:     make([]float64, t.features),
				runMean: make([]float64, t.features),
				runVar:  make([]float64, t.features),
			}
			for i := range op.runVar {
				op.runVar[i] = 1
			}
			l.ops = append(l.ops, op)
			if t.features > maxF {
				maxF = t.features
			}
		default:
			return nil, fmt.Errorf("nn: Lane32 does not support layer %T (%s); use the float64 lane", layer, layer.Name())
		}
	}
	if len(l.ops) == 0 {
		return nil, fmt.Errorf("nn: Lane32: network %q compiles to no ops", net.Name())
	}
	l.paramLen = off
	l.sampleLen = l.ops[0].inLen
	l.classes = l.ops[len(l.ops)-1].outLen
	l.master = make([]float64, off)
	l.params = make([]float32, off)
	l.grads = make([]float32, off)
	l.dw = make([]float32, maxDW)
	l.dcols = make([]float32, maxDcols)
	l.statMean = make([]float64, maxF)
	l.statVar = make([]float64, maxF)
	l.sumDxh = make([]float64, maxF)
	l.sumDxhX = make([]float64, maxF)
	l.expRow = make([]float64, l.classes)
	return l, nil
}

// NumParams returns the flat parameter count (same layout as Network.ParamVector).
func (l *Lane32) NumParams() int { return l.paramLen }

// SampleLen returns the per-sample input length the lane expects.
func (l *Lane32) SampleLen() int { return l.sampleLen }

// Classes returns the network's output width.
func (l *Lane32) Classes() int { return l.classes }

// LoadParams installs a flat float64 parameter vector (Network.ParamVector
// layout) as the master weights and rounds the float32 compute copy.
func (l *Lane32) LoadParams(v []float64) error {
	if len(v) != l.paramLen {
		return fmt.Errorf("nn: Lane32 parameter vector length %d does not match network %q (%d params)", len(v), l.name, l.paramLen)
	}
	copy(l.master, v)
	for i, x := range l.master {
		l.params[i] = float32(x)
	}
	return nil
}

// ParamsInto appends the float64 master weights to dst[:0] and returns the
// slice — the aggregation-boundary view of the lane, free of float32
// round-trips.
func (l *Lane32) ParamsInto(dst []float64) []float64 {
	return append(dst[:0], l.master...)
}

// SetInput converts a flat float64 batch ([batch][sampleLen]) into the
// float32 input buffer. Changing the batch size resizes the pooled buffers.
func (l *Lane32) SetInput(batch int, src []float64) {
	if len(src) != batch*l.sampleLen {
		panic(fmt.Sprintf("nn: Lane32 input %d floats, want %d (batch %d × sample %d)", len(src), batch*l.sampleLen, batch, l.sampleLen))
	}
	l.ensure(batch)
	for i, v := range src {
		l.inBuf[i] = float32(v)
	}
}

// TrainStep runs one SGD minibatch on the staged input: float32 forward,
// softmax cross-entropy, float32 backward, float64 master update. It returns
// the batch loss and the squared gradient norm measured before the update.
func (l *Lane32) TrainStep(batch int, labels []int, lr float64) (loss, sqNorm float64) {
	l.ensure(batch)
	for i := range l.grads {
		l.grads[i] = 0
	}
	for i := range l.ops {
		l.forwardOp(&l.ops[i], batch)
	}
	last := &l.ops[len(l.ops)-1]
	loss = l.lossInto(last.outBuf, labels, l.gradA[:batch*l.classes], batch)
	gout, gin := l.gradA, l.gradB
	for i := len(l.ops) - 1; i >= 0; i-- {
		// The first op's input gradient has no consumer — nothing reads
		// gin below op 0 — so its (often largest) dX product is skipped.
		l.backwardOp(&l.ops[i], batch, gout, gin, i > 0)
		gout, gin = gin, gout
	}
	// Aggregation boundary: the norm and the SGD update run in float64
	// against the master weights, then the float32 copy is re-rounded. One
	// pass: the norm terms accumulate in ascending j exactly as a separate
	// loop would.
	m, p := l.master, l.params
	for j, gv := range l.grads {
		f := float64(gv)
		sqNorm += f * f
		m[j] -= lr * f
		p[j] = float32(m[j])
	}
	return loss, sqNorm
}

// ensure sizes the pooled buffers for the given batch, reusing capacity. In
// steady state (fixed batch) it is a comparison and a return.
func (l *Lane32) ensure(batch int) {
	if batch == l.batch {
		return
	}
	l.batch = batch
	l.inBuf = grow32(l.inBuf, batch*l.sampleLen)
	maxLen := 0
	for i := range l.ops {
		op := &l.ops[i]
		op.outBuf = grow32(op.outBuf, batch*op.outLen)
		switch op.kind {
		case laneOpConv:
			op.cols = grow32(op.cols, batch*op.cr*op.sp)
		case laneOpPool:
			op.argmax = growI32(op.argmax, batch*op.outLen)
		case laneOpBN:
			op.xhat = grow32(op.xhat, batch*op.features)
		}
		if op.inLen > maxLen {
			maxLen = op.inLen
		}
		if op.outLen > maxLen {
			maxLen = op.outLen
		}
	}
	l.gradA = grow32(l.gradA, batch*maxLen)
	l.gradB = grow32(l.gradB, batch*maxLen)
	prev := l.inBuf
	for i := range l.ops {
		l.ops[i].inRef = prev
		prev = l.ops[i].outBuf
	}
}

func (l *Lane32) forwardOp(op *lane32Op, batch int) {
	in, out := op.inRef, op.outBuf
	switch op.kind {
	case laneOpDense:
		w := l.params[op.wOff : op.wOff+op.out*op.in]
		b := l.params[op.bOff : op.bOff+op.out]
		tensor.MatMulTransB32Into(out, in, w, batch, op.in, op.out)
		for i := 0; i < batch; i++ {
			row := out[i*op.out : (i+1)*op.out]
			for j := range row {
				row[j] += b[j]
			}
		}
	case laneOpConv:
		w := l.params[op.wOff : op.wOff+op.outC*op.cr]
		b := l.params[op.bOff : op.bOff+op.outC]
		for i := 0; i < batch; i++ {
			cols := op.cols[i*op.cr*op.sp : (i+1)*op.cr*op.sp]
			tensor.Im2Col32Into(cols, in[i*op.inLen:(i+1)*op.inLen], op.geom)
			seg := out[i*op.outLen : (i+1)*op.outLen]
			tensor.MatMul32Into(seg, w, cols, op.outC, op.cr, op.sp)
			for oc := 0; oc < op.outC; oc++ {
				row := seg[oc*op.sp : (oc+1)*op.sp]
				bv := b[oc]
				for j := range row {
					row[j] += bv
				}
			}
		}
	case laneOpReLU:
		for i, v := range in {
			if v > 0 {
				out[i] = v
			} else {
				out[i] = 0
			}
		}
	case laneOpPool:
		oh, ow := op.h/2, op.w/2
		am := op.argmax
		oi := 0
		for bc := 0; bc < batch*op.c; bc++ {
			plane := bc * op.h * op.w
			for oy := 0; oy < oh; oy++ {
				rowTop := plane + 2*oy*op.w
				for ox := 0; ox < ow; ox++ {
					i0 := rowTop + 2*ox
					best, bestIdx := in[i0], i0
					if v := in[i0+1]; v > best {
						best, bestIdx = v, i0+1
					}
					if v := in[i0+op.w]; v > best {
						best, bestIdx = v, i0+op.w
					}
					if v := in[i0+op.w+1]; v > best {
						best, bestIdx = v, i0+op.w+1
					}
					out[oi] = best
					am[oi] = int32(bestIdx)
					oi++
				}
			}
		}
	case laneOpBN:
		l.forwardBN(op, batch, in, out)
	}
}

func (l *Lane32) backwardOp(op *lane32Op, batch int, goutBuf, ginBuf []float32, needGin bool) {
	gout := goutBuf[:batch*op.outLen]
	gin := ginBuf[:batch*op.inLen]
	in := op.inRef
	switch op.kind {
	case laneOpDense:
		// dW accumulates straight into the flat gradient buffer — no scratch.
		dw := l.grads[op.wOff : op.wOff+op.out*op.in]
		tensor.MatMulTransA32Acc(dw, gout, in, batch, op.out, op.in)
		db := l.grads[op.bOff : op.bOff+op.out]
		for i := 0; i < batch; i++ {
			row := gout[i*op.out : (i+1)*op.out]
			for j, v := range row {
				db[j] += v
			}
		}
		if needGin {
			w := l.params[op.wOff : op.wOff+op.out*op.in]
			tensor.MatMul32Into(gin, gout, w, batch, op.out, op.in)
		}
	case laneOpConv:
		w := l.params[op.wOff : op.wOff+op.outC*op.cr]
		dwAcc := l.grads[op.wOff : op.wOff+op.outC*op.cr]
		db := l.grads[op.bOff : op.bOff+op.outC]
		dw := l.dw[:op.outC*op.cr]
		dcols := l.dcols[:op.cr*op.sp]
		for i := 0; i < batch; i++ {
			gmat := gout[i*op.outLen : (i+1)*op.outLen]
			cols := op.cols[i*op.cr*op.sp : (i+1)*op.cr*op.sp]
			tensor.MatMulTransB32Into(dw, gmat, cols, op.outC, op.sp, op.cr)
			for j, v := range dw {
				dwAcc[j] += v
			}
			for oc := 0; oc < op.outC; oc++ {
				row := gmat[oc*op.sp : (oc+1)*op.sp]
				var sum float32
				for _, v := range row {
					sum += v
				}
				db[oc] += sum
			}
			if !needGin {
				continue
			}
			for j := range dcols {
				dcols[j] = 0
			}
			tensor.MatMulTransA32Acc(dcols, w, gmat, op.outC, op.cr, op.sp)
			tensor.Col2Im32Into(gin[i*op.inLen:(i+1)*op.inLen], dcols, op.geom)
		}
	case laneOpReLU:
		// The forward output doubles as the mask: out > 0 ⟺ input > 0.
		for i, v := range op.outBuf {
			if v > 0 {
				gin[i] = gout[i]
			} else {
				gin[i] = 0
			}
		}
	case laneOpPool:
		am := op.argmax
		for i := range gin {
			gin[i] = 0
		}
		for i, v := range gout {
			gin[am[i]] += v
		}
	case laneOpBN:
		l.backwardBN(op, batch, gout, gin)
	}
}

// forwardBN normalizes in float32 with float64 batch statistics — the same
// accumulation-boundary rule as the loss: reductions over the batch are f64.
func (l *Lane32) forwardBN(op *lane32Op, batch int, in, out []float32) {
	f := op.features
	mean, vari := l.statMean[:f], l.statVar[:f]
	for j := range mean {
		mean[j], vari[j] = 0, 0
	}
	for i := 0; i < batch; i++ {
		row := in[i*f : (i+1)*f]
		for j, v := range row {
			mean[j] += float64(v)
		}
	}
	inv := 1.0 / float64(batch)
	for j := range mean {
		mean[j] *= inv
	}
	for i := 0; i < batch; i++ {
		row := in[i*f : (i+1)*f]
		for j, v := range row {
			d := float64(v) - mean[j]
			vari[j] += d * d
		}
	}
	for j := range vari {
		vari[j] *= inv
	}
	std, rm, rv := op.std, op.runMean, op.runVar
	for j := 0; j < f; j++ {
		std[j] = math.Sqrt(vari[j] + op.eps)
		rm[j] = op.mom*rm[j] + (1-op.mom)*mean[j]
		rv[j] = op.mom*rv[j] + (1-op.mom)*vari[j]
	}
	g := l.params[op.wOff : op.wOff+f]
	bt := l.params[op.bOff : op.bOff+f]
	xh := op.xhat
	for i := 0; i < batch; i++ {
		for j := 0; j < f; j++ {
			v := float32((float64(in[i*f+j]) - mean[j]) / std[j])
			xh[i*f+j] = v
			out[i*f+j] = g[j]*v + bt[j]
		}
	}
}

func (l *Lane32) backwardBN(op *lane32Op, batch int, gout, gin []float32) {
	f := op.features
	n := float64(batch)
	xh := op.xhat
	g := l.params[op.wOff : op.wOff+f]
	gGrad := l.grads[op.wOff : op.wOff+f]
	bGrad := l.grads[op.bOff : op.bOff+f]
	std := op.std
	sd, sdx := l.sumDxh[:f], l.sumDxhX[:f]
	for j := range sd {
		sd[j], sdx[j] = 0, 0
	}
	for i := 0; i < batch; i++ {
		for j := 0; j < f; j++ {
			dy := float64(gout[i*f+j])
			x := float64(xh[i*f+j])
			gGrad[j] += float32(dy * x)
			bGrad[j] += float32(dy)
			dxh := dy * float64(g[j])
			sd[j] += dxh
			sdx[j] += dxh * x
		}
	}
	for i := 0; i < batch; i++ {
		for j := 0; j < f; j++ {
			dxh := float64(gout[i*f+j]) * float64(g[j])
			gin[i*f+j] = float32((n*dxh - sd[j] - float64(xh[i*f+j])*sdx[j]) / (n * std[j]))
		}
	}
}

// lossInto is the float32-lane softmax cross-entropy: float32 logits in,
// float32 gradient out, with the exp/log/sum arithmetic in float64 like
// SoftmaxCrossEntropyInto.
//
//machlint:noalias logits,grad
//machlint:allocfree
func (l *Lane32) lossInto(logits []float32, labels []int, grad []float32, batch int) float64 {
	classes := l.classes
	if len(labels) != batch {
		panic(fmt.Sprintf("nn: Lane32 got %d labels for batch %d", len(labels), batch))
	}
	invB := 1.0 / float64(batch)
	loss := 0.0
	exps := l.expRow[:classes]
	for i := 0; i < batch; i++ {
		row := logits[i*classes : (i+1)*classes]
		grow := grad[i*classes : (i+1)*classes]
		maxv := float64(row[0])
		for _, v := range row[1:] {
			if fv := float64(v); fv > maxv {
				maxv = fv
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(float64(v) - maxv)
			exps[j] = e
			sum += e
		}
		y := labels[i]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, classes))
		}
		p := exps[y] / sum
		loss += -math.Log(math.Max(p, 1e-300))
		for j := range grow {
			grow[j] = float32(exps[j] / sum * invB)
		}
		grow[y] -= float32(invB)
	}
	return loss * invB
}

func grow32(b []float32, n int) []float32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]float32, n)
}

func growI32(b []int32, n int) []int32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int32, n)
}
