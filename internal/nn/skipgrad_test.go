package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/tensor"
)

// fullBackwardStep is TrainStep without the first-layer skip:
// the backward pass runs Network.Backward over every layer, input gradient
// included.
func fullBackwardStep(n *Network, x *tensor.Tensor, labels []int, opt Optimizer) (loss, gradSqNorm float64) {
	n.ZeroGrad()
	logits := n.Forward(x, true)
	grad := tensor.New(logits.Dim(0), logits.Dim(1))
	loss = SoftmaxCrossEntropyInto(logits, labels, grad)
	n.Backward(grad)
	gradSqNorm = n.GradSquaredNorm()
	opt.Step(n.Params())
	return loss, gradSqNorm
}

// TestTrainStepSkipMatchesFullBackward: stopping the training backward pass
// at the first weighted layer leaves the loss, the gradient norm and every
// parameter bit-identical to the full pass, for a network whose first
// weighted layer is a Dense (behind a Flatten), a Conv2D and a BatchNorm1D.
// Lockstep takes the same skip, so it is held to the same twin.
func TestTrainStepSkipMatchesFullBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cnn, err := NewCNN(MNISTCNNConfig(8, 8), rng)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		net   *Network
		shape []int
	}{
		{"mlp", NewMLP("mlp", 64, []int{32}, 10, rng), []int{64}},
		{"cnn", cnn, []int{1, 8, 8}},
		{"batchnorm", NewNetwork("bn",
			NewBatchNorm1D("bn", 16),
			NewDense("fc1", 16, 12, rng),
			NewReLU("relu1"),
			NewDense("out", 12, 10, rng)), []int{16}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			skip, full, fused := c.net, c.net.Clone(), c.net.Clone()
			skipOpt, fullOpt, fusedOpt := NewSGD(0.05), NewSGD(0.05), NewSGD(0.05)
			var ls Lockstep
			losses, norms := make([]float64, 1), make([]float64, 1)
			for step := 0; step < 4; step++ {
				x, _, labels := laneTestBatch(rng, 8, c.shape...)
				skipLoss, skipNorm := skip.TrainStep(x, labels, skipOpt)
				fullLoss, fullNorm := fullBackwardStep(full, x, labels, fullOpt)
				ls.Step([]*Network{fused}, []*tensor.Tensor{x}, [][]int{labels}, []Optimizer{fusedOpt}, losses, norms)
				if skipLoss != fullLoss || math.Float64bits(skipNorm) != math.Float64bits(fullNorm) {
					t.Fatalf("step %d: TrainStep (loss %v, norm %v) != full backward (loss %v, norm %v)",
						step, skipLoss, skipNorm, fullLoss, fullNorm)
				}
				if losses[0] != fullLoss || math.Float64bits(norms[0]) != math.Float64bits(fullNorm) {
					t.Fatalf("step %d: Lockstep (loss %v, norm %v) != full backward (loss %v, norm %v)",
						step, losses[0], norms[0], fullLoss, fullNorm)
				}
				sp, fp, lp := skip.ParamVector(), full.ParamVector(), fused.ParamVector()
				for i := range fp {
					if math.Float64bits(sp[i]) != math.Float64bits(fp[i]) || math.Float64bits(lp[i]) != math.Float64bits(fp[i]) {
						t.Fatalf("step %d param %d: TrainStep %v, Lockstep %v, full backward %v", step, i, sp[i], lp[i], fp[i])
					}
				}
			}
		})
	}
}

// TestTrainStepComputesNoFirstLayerInputGradient: the skip really happens —
// the first weighted layer never builds its input-gradient buffer under
// TrainStep — while Network.Backward still returns the input gradient.
func TestTrainStepComputesNoFirstLayerInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cnn, err := NewCNN(MNISTCNNConfig(8, 8), rng)
	if err != nil {
		t.Fatal(err)
	}
	x, _, labels := laneTestBatch(rng, 4, 1, 8, 8)
	cnn.TrainStep(x, labels, NewSGD(0.05))
	if cnn.Layers()[0].(*Conv2D).bwdOut != nil {
		t.Fatal("TrainStep computed the input gradient of conv1")
	}
	if cnn.Layers()[3].(*Conv2D).bwdOut == nil {
		t.Fatal("TrainStep skipped the input gradient of conv2, above the first weighted layer")
	}

	logits := cnn.Forward(x, true)
	grad := tensor.New(logits.Dim(0), logits.Dim(1))
	SoftmaxCrossEntropyInto(logits, labels, grad)
	dx := cnn.Backward(grad)
	if dx == nil || !dx.SameShape(x) {
		t.Fatalf("Network.Backward returned input gradient %v for input %v", dx, x.Shape())
	}
}
