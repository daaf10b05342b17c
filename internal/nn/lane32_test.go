package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/mach-fl/mach/internal/tensor"
)

// laneTestBatch draws one random batch as both the flat f64 slice Lane32
// consumes and the tensor the f64 network consumes (same storage layout).
func laneTestBatch(rng *rand.Rand, batch int, shape ...int) (*tensor.Tensor, []float64, []int) {
	dims := append([]int{batch}, shape...)
	x := tensor.Randn(rng, 1, dims...)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return x, x.Data(), labels
}

// TestLane32TracksF64Trajectory trains the same seeded MLP in both lanes on
// identical batches and checks the f32 trajectory stays within float32
// tolerance of the f64 one — losses per step and final parameters.
func TestLane32TracksF64Trajectory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewMLP("lane-mlp", 16, []int{16}, 10, rng)
	lane, err := NewLane32(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.LoadParams(net.ParamVector()); err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(0.05)
	batchRng := rand.New(rand.NewSource(12))
	for step := 0; step < 30; step++ {
		x, flat, labels := laneTestBatch(batchRng, 8, 16)
		loss64, norm64 := net.TrainStep(x, labels, opt)
		lane.SetInput(8, flat)
		loss32, norm32 := lane.TrainStep(8, labels, 0.05)
		if math.Abs(loss32-loss64) > 1e-4*(1+math.Abs(loss64)) {
			t.Fatalf("step %d: f32 loss %v vs f64 loss %v", step, loss32, loss64)
		}
		if math.Abs(norm32-norm64) > 1e-3*(1+norm64) {
			t.Fatalf("step %d: f32 ‖g‖² %v vs f64 %v", step, norm32, norm64)
		}
	}
	p64 := net.ParamVector()
	p32 := lane.ParamsInto(nil)
	for i := range p64 {
		if math.Abs(p32[i]-p64[i]) > 1e-3*(1+math.Abs(p64[i])) {
			t.Fatalf("param %d diverged: f32 lane %v vs f64 %v", i, p32[i], p64[i])
		}
	}
}

// TestLane32TracksF64CNN runs the conv/pool pipeline through both lanes.
func TestLane32TracksF64CNN(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := CNNConfig{
		Name: "lane-cnn",
		InC:  1, InH: 8, InW: 8,
		Convs: []ConvSpec{
			{OutC: 2, K: 3, Pad: 1, Pool: true},
			{OutC: 4, K: 3, Pad: 1, Pool: true},
		},
		Hidden:  []int{8},
		Classes: 10,
	}
	net, err := NewCNN(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	lane, err := NewLane32(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.LoadParams(net.ParamVector()); err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(0.05)
	batchRng := rand.New(rand.NewSource(14))
	for step := 0; step < 5; step++ {
		x, flat, labels := laneTestBatch(batchRng, 4, 1, 8, 8)
		loss64, _ := net.TrainStep(x, labels, opt)
		lane.SetInput(4, flat)
		if loss32, _ := lane.TrainStep(4, labels, 0.05); math.Abs(loss32-loss64) > 1e-4*(1+math.Abs(loss64)) {
			t.Fatalf("step %d: f32 loss %v vs f64 loss %v", step, loss32, loss64)
		}
	}
	p64 := net.ParamVector()
	p32 := lane.ParamsInto(nil)
	for i := range p64 {
		if math.Abs(p32[i]-p64[i]) > 1e-3*(1+math.Abs(p64[i])) {
			t.Fatalf("param %d diverged: f32 lane %v vs f64 %v", i, p32[i], p64[i])
		}
	}
}

// TestLane32TracksF64BatchNorm covers the batch-norm op (f64 statistics,
// f32 normalize) against the reference layer.
func TestLane32TracksF64BatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net := NewNetwork("lane-bn",
		NewDense("fc1", 12, 6, rng),
		NewBatchNorm1D("bn", 6),
		NewReLU("r"),
		NewDense("fc2", 6, 10, rng),
	)
	lane, err := NewLane32(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.LoadParams(net.ParamVector()); err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(0.05)
	batchRng := rand.New(rand.NewSource(16))
	for step := 0; step < 10; step++ {
		x, flat, labels := laneTestBatch(batchRng, 6, 12)
		loss64, _ := net.TrainStep(x, labels, opt)
		lane.SetInput(6, flat)
		if loss32, _ := lane.TrainStep(6, labels, 0.05); math.Abs(loss32-loss64) > 1e-4*(1+math.Abs(loss64)) {
			t.Fatalf("step %d: f32 loss %v vs f64 loss %v", step, loss32, loss64)
		}
	}
}

// TestLane32GradCheck verifies the f32 lane's analytic gradients against
// central differences on the float64 master weights, with the looser
// tolerance float32 arithmetic warrants.
func TestLane32GradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := NewNetwork("lane-gradcheck",
		NewDense("fc1", 6, 5, rng),
		NewReLU("r1"),
		NewDense("fc2", 5, 3, rng),
	)
	lane, err := NewLane32(net)
	if err != nil {
		t.Fatal(err)
	}
	v := net.ParamVector()
	x, flat, _ := laneTestBatch(rng, 4, 6)
	_ = x
	labels := []int{0, 1, 2, 1}
	lossAt := func(params []float64) float64 {
		if err := lane.LoadParams(params); err != nil {
			t.Fatal(err)
		}
		lane.SetInput(4, flat)
		loss, _ := lane.TrainStep(4, labels, 0) // lr=0: loss+grads only
		return loss
	}
	lossAt(v)
	analytic := make([]float64, len(v))
	for i, g := range lane.grads {
		analytic[i] = float64(g)
	}
	const h = 1e-3
	for s := 0; s < 40; s++ {
		i := rng.Intn(len(v))
		orig := v[i]
		v[i] = orig + h
		plus := lossAt(v)
		v[i] = orig - h
		minus := lossAt(v)
		v[i] = orig
		numeric := (plus - minus) / (2 * h)
		scale := math.Max(1e-2, math.Abs(analytic[i])+math.Abs(numeric))
		if math.Abs(analytic[i]-numeric)/scale > 2e-2 {
			t.Fatalf("param %d: analytic %.6g vs numeric %.6g", i, analytic[i], numeric)
		}
	}
}

// TestLane32SteadyStateZeroAllocs pins the lane-aware scratch contract: once
// the pooled buffers exist, SetInput+TrainStep allocates nothing.
func TestLane32SteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := NewMLP("lane-alloc", 16, []int{32, 16}, 10, rng)
	lane, err := NewLane32(net)
	if err != nil {
		t.Fatal(err)
	}
	_, flat, labels := laneTestBatch(rng, 8, 16)
	if err := lane.LoadParams(net.ParamVector()); err != nil {
		t.Fatal(err)
	}
	lane.SetInput(8, flat)
	lane.TrainStep(8, labels, 0.05) // warm-up installs buffers
	allocs := testing.AllocsPerRun(20, func() {
		lane.SetInput(8, flat)
		lane.TrainStep(8, labels, 0.05)
	})
	if allocs != 0 {
		t.Fatalf("steady-state f32 TrainStep allocates %v objects per call", allocs)
	}
}

// TestLane32RejectsDropout: layers the lane cannot reproduce bit-for-bit
// (Dropout owns an RNG stream) must fail at construction, not at runtime.
func TestLane32RejectsDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	net := NewNetwork("lane-drop",
		NewDense("fc", 8, 8, rng),
		NewDropout("d", 0.5, rng),
		NewDense("out", 8, 4, rng),
	)
	if _, err := NewLane32(net); err == nil {
		t.Fatal("NewLane32 accepted a Dropout layer")
	}
}
