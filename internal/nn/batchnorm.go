package nn

import (
	"fmt"
	"math"

	"github.com/mach-fl/mach/internal/tensor"
)

// BatchNorm1D normalizes each feature of a [B, F] batch to zero mean and
// unit variance, then applies a learned affine transform γ·x̂ + β. Running
// statistics accumulated during training are used at evaluation time.
//
// Note for FL use: batch-norm statistics are part of the model state but are
// not trainable parameters; in federated settings they are a known source of
// client drift (each device's running stats track its own distribution).
// This implementation keeps the running stats out of the parameter vector,
// matching the common FedAvg practice of aggregating only weights.
type BatchNorm1D struct {
	name     string
	features int
	momentum float64
	epsilon  float64

	gamma *Param
	beta  *Param

	runMean []float64
	runVar  []float64

	// cached training-forward intermediates
	lastXHat *tensor.Tensor
	lastStd  []float64
}

var _ Layer = (*BatchNorm1D)(nil)

// NewBatchNorm1D returns a batch-norm layer over the given feature width.
func NewBatchNorm1D(name string, features int) *BatchNorm1D {
	if features <= 0 {
		panic(fmt.Sprintf("nn: %s needs positive feature width", name))
	}
	b := &BatchNorm1D{
		name:     name,
		features: features,
		momentum: 0.9,
		epsilon:  1e-5,
		gamma:    newParam(name+".gamma", tensor.Full(1, features)),
		beta:     newParam(name+".beta", tensor.New(features)),
		runMean:  make([]float64, features),
		runVar:   make([]float64, features),
	}
	for i := range b.runVar {
		b.runVar[i] = 1
	}
	return b
}

// Name implements Layer.
func (b *BatchNorm1D) Name() string { return b.name }

// Params implements Layer.
func (b *BatchNorm1D) Params() []*Param { return []*Param{b.gamma, b.beta} }

// Forward implements Layer.
func (b *BatchNorm1D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != b.features {
		panic(fmt.Sprintf("nn: %s expects [B, %d], got %v", b.name, b.features, x.Shape()))
	}
	batch := x.Dim(0)
	out := tensor.New(batch, b.features)
	xd, od := x.Data(), out.Data()
	g, bt := b.gamma.Value.Data(), b.beta.Value.Data()

	if !train {
		for i := 0; i < batch; i++ {
			for j := 0; j < b.features; j++ {
				xh := (xd[i*b.features+j] - b.runMean[j]) / math.Sqrt(b.runVar[j]+b.epsilon)
				od[i*b.features+j] = g[j]*xh + bt[j]
			}
		}
		return out
	}

	mean := make([]float64, b.features)
	for i := 0; i < batch; i++ {
		for j := 0; j < b.features; j++ {
			mean[j] += xd[i*b.features+j]
		}
	}
	for j := range mean {
		mean[j] /= float64(batch)
	}
	variance := make([]float64, b.features)
	for i := 0; i < batch; i++ {
		for j := 0; j < b.features; j++ {
			d := xd[i*b.features+j] - mean[j]
			variance[j] += d * d
		}
	}
	for j := range variance {
		variance[j] /= float64(batch)
	}

	b.lastXHat = tensor.New(batch, b.features)
	b.lastStd = make([]float64, b.features)
	xh := b.lastXHat.Data()
	for j := 0; j < b.features; j++ {
		b.lastStd[j] = math.Sqrt(variance[j] + b.epsilon)
		b.runMean[j] = b.momentum*b.runMean[j] + (1-b.momentum)*mean[j]
		b.runVar[j] = b.momentum*b.runVar[j] + (1-b.momentum)*variance[j]
	}
	for i := 0; i < batch; i++ {
		for j := 0; j < b.features; j++ {
			v := (xd[i*b.features+j] - mean[j]) / b.lastStd[j]
			xh[i*b.features+j] = v
			od[i*b.features+j] = g[j]*v + bt[j]
		}
	}
	return out
}

// Backward implements Layer using the standard batch-norm gradient:
//
//	dx̂ = dy·γ
//	dx = (1/N·σ)·(N·dx̂ − Σdx̂ − x̂·Σ(dx̂·x̂))
func (b *BatchNorm1D) Backward(grad *tensor.Tensor) *tensor.Tensor { return b.backward(grad, true) }

func (b *BatchNorm1D) backward(grad *tensor.Tensor, input bool) *tensor.Tensor {
	if b.lastXHat == nil {
		panic("nn: BatchNorm1D.Backward called before Forward(train=true)")
	}
	batch := grad.Dim(0)
	n := float64(batch)
	gd := grad.Data()
	xh := b.lastXHat.Data()
	g := b.gamma.Value.Data()
	gGrad := b.gamma.Grad.Data()
	bGrad := b.beta.Grad.Data()

	sumDxhat := make([]float64, b.features)
	sumDxhatXhat := make([]float64, b.features)
	for i := 0; i < batch; i++ {
		for j := 0; j < b.features; j++ {
			dy := gd[i*b.features+j]
			x := xh[i*b.features+j]
			gGrad[j] += dy * x
			bGrad[j] += dy
			dxh := dy * g[j]
			sumDxhat[j] += dxh
			sumDxhatXhat[j] += dxh * x
		}
	}
	if !input {
		return nil
	}
	dx := tensor.New(batch, b.features)
	dd := dx.Data()
	for i := 0; i < batch; i++ {
		for j := 0; j < b.features; j++ {
			dxh := gd[i*b.features+j] * g[j]
			dd[i*b.features+j] = (n*dxh - sumDxhat[j] - xh[i*b.features+j]*sumDxhatXhat[j]) / (n * b.lastStd[j])
		}
	}
	return dx
}

func (b *BatchNorm1D) clone() Layer {
	c := NewBatchNorm1D(b.name, b.features)
	copy(c.gamma.Value.Data(), b.gamma.Value.Data())
	copy(c.beta.Value.Data(), b.beta.Value.Data())
	copy(c.runMean, b.runMean)
	copy(c.runVar, b.runVar)
	return c
}
