package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/mach-fl/mach/internal/bench"
	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
	"github.com/mach-fl/mach/internal/tensor"
)

// perLayerMetrics are reported by the traced run of every workload. A
// layer the workload's path does not reach reads 0 (an MLP has no im2col,
// the engine makes no RPC, a model lacks another model's layers).
var perLayerMetrics = append([]metricDef{
	{Name: "tensor.matmul_us", Unit: "us", Better: "lower"},
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_mflop_computed", Unit: "MFLOP", Better: "lower"},
	{Name: "tensor.matmul_kib_computed", Unit: "KiB", Better: "lower"},
	{Name: "tensor.im2col_us", Unit: "us", Better: "lower"},
	{Name: "nn.train_step_us", Unit: "us", Better: "lower"},
	{Name: "nn.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "mobility.advance_us", Unit: "us", Better: "lower"},
	{Name: "mobility.index_advance_us", Unit: "us", Better: "lower"},
	{Name: "mobility.moves_per_step", Unit: "count", Better: "lower"},
	{Name: "sampling.probabilities_us", Unit: "us", Better: "lower"},
	{Name: "sampling.ucb_estimates_us", Unit: "us", Better: "lower"},
	{Name: "sampling.observe_us", Unit: "us", Better: "lower"},
	{Name: "sampling.sampled_per_step", Unit: "count", Better: "higher"},
	{Name: "sampling.floor_clamp_ratio", Unit: "ratio", Better: "lower"},
	{Name: "hfl.decide_ms", Unit: "ms", Better: "lower"},
	{Name: "hfl.train_ms", Unit: "ms", Better: "lower"},
	{Name: "hfl.finalize_ms", Unit: "ms", Better: "lower"},
	{Name: "hfl.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "hfl.cloud_reduce_ms", Unit: "ms", Better: "lower"},
	{Name: "hfl.queue_depth", Unit: "count", Better: "lower"},
	{Name: "hfl.unaccounted_ms", Unit: "ms", Better: "lower"},
	{Name: "codec.encode_us", Unit: "us", Better: "lower"},
	{Name: "codec.decode_us", Unit: "us", Better: "lower"},
	{Name: "codec.ratio", Unit: "ratio", Better: "higher"},
	{Name: "fed.rpc_edge_step_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.handle_train_many_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.rpc_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.rpc_calls_per_step", Unit: "count", Better: "lower"},
	{Name: "dataset.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "reconcile.step_ms", Unit: "ms", Better: "lower"},
	{Name: "reconcile.parts_ms", Unit: "ms", Better: "lower"},
	{Name: "reconcile.gap_ms", Unit: "ms", Better: "lower"},
	{Name: "reconcile.gap_pct", Unit: "%", Better: "lower"},
}, layerMetrics()...)

// workloadArchs are the model architectures the workloads train: the CI
// MLP (fig3-mnist-mlp, fed-delta), the 2-conv CNN and the control plane's
// tiny MLP.
func workloadArchs() []hfl.ArchFunc {
	cnn := bench.TaskPreset(bench.TaskMNIST, bench.ScaleCI)
	cnn.Model = "cnn"
	return []hfl.ArchFunc{bench.TaskPreset(bench.TaskMNIST, bench.ScaleCI).Arch(), cnn.Arch(), controlPlaneArch}
}

// layerMetricName names the forward or backward time of layer i.
func layerMetricName(i int, layer nn.Layer, dir string) string {
	return fmt.Sprintf("nn.layer.%d-%s.%s_us", i, layer.Name(), dir)
}

// layerMetrics registers nn.layer.<i>-<name>.fwd_us/.bwd_us for every
// layer of every workload architecture (Network.Layers order).
func layerMetrics() []metricDef {
	var defs []metricDef
	seen := map[string]bool{}
	for a, arch := range workloadArchs() {
		net, err := arch(rand.New(rand.NewSource(int64(a)))) // only the layer names are read
		if err != nil {
			panic(err)
		}
		for i, l := range net.Layers() {
			for _, dir := range []string{"fwd", "bwd"} {
				if n := layerMetricName(i, l, dir); !seen[n] {
					seen[n] = true
					defs = append(defs, metricDef{Name: n, Unit: "us", Better: "lower"})
				}
			}
		}
	}
	return defs
}

// probeBudget bounds each timing loop of a probe.
const probeBudget = 150 * time.Millisecond

// timeIt calls fn at least minN times and for at least probeBudget (at most
// 10000 times) and returns the median nanoseconds per call.
func timeIt(minN int, fn func()) float64 {
	var samples []float64
	start := telemetry.WallNow()
	for len(samples) < minN || (telemetry.WallSince(start) < probeBudget && len(samples) < 10000) {
		t0 := telemetry.WallNow()
		fn()
		samples = append(samples, float64(telemetry.WallSince(t0).Nanoseconds()))
	}
	return median(samples)
}

// probeModel times the workload's own model on one of its device batches:
// every GEMM and im2col of a forward pass at the layers' real shapes, each
// layer's forward and backward, a full TrainStep, and evaluation of the
// final global model on the workload's test set.
func probeModel(in *layerInputs, res *result) error {
	d := perLayerMetrics
	net, err := in.arch(rand.New(rand.NewSource(in.archSeed)))
	if err != nil {
		return err
	}
	if err := net.SetParamVector(in.final); err != nil {
		return err
	}
	x, y := in.device.RandomBatch(rand.New(rand.NewSource(in.archSeed)), in.batchSize)
	layers := net.Layers()

	// One forward pass records each layer's input activation.
	acts := make([]*tensor.Tensor, len(layers))
	cur := x
	for i, l := range layers {
		acts[i] = cur.Clone()
		cur = l.Forward(cur, false)
	}
	var flops, bytes float64
	var gemms, im2cols []func()
	for i, l := range layers {
		a := acts[i]
		switch l.(type) {
		case *nn.Dense:
			w := l.Params()[0].Value // [out, in]
			b, out, inW := a.Dim(0), w.Dim(0), w.Dim(1)
			dst := tensor.New(b, out)
			gemms = append(gemms, func() { tensor.MatMulTransBInto(dst, a, w) })
			flops += 2 * float64(b*out*inW)
			bytes += 8 * float64(b*inW+out*inW+b*out)
		case *nn.Conv2D:
			w := l.Params()[0].Value    // [outC, inC·K·K]
			outT := l.Forward(a, false) // [B, outC, OH, OW]
			b, inC, h, wd := a.Dim(0), a.Dim(1), a.Dim(2), a.Dim(3)
			outC, colRows := w.Dim(0), w.Dim(1)
			k := int(math.Round(math.Sqrt(float64(colRows / inC))))
			oh, ow := outT.Dim(2), outT.Dim(3)
			g := tensor.ConvGeom{InC: inC, InH: h, InW: wd, K: k, Stride: 1, Pad: (oh - 1 - h + k) / 2}
			if err := g.Validate(); err != nil || g.OutH() != oh || g.OutW() != ow {
				return fmt.Errorf("probe: cannot recover the geometry of %s", l.Name())
			}
			prod := tensor.New(outC, oh*ow)
			imgLen := inC * h * wd
			imgs := make([]*tensor.Tensor, b)
			cols := make([]*tensor.Tensor, b)
			for j := range imgs {
				imgs[j] = tensor.FromSlice(a.Data()[j*imgLen:(j+1)*imgLen], inC, h, wd)
				cols[j] = tensor.Im2Col(imgs[j], g)
			}
			im2cols = append(im2cols, func() {
				for j, img := range imgs {
					tensor.Im2ColInto(cols[j], img, g)
				}
			})
			gemms = append(gemms, func() {
				for _, c := range cols {
					tensor.MatMulInto(prod, w, c)
				}
			})
			flops += 2 * float64(b*outC*colRows*oh*ow)
			bytes += 8 * float64(b*(outC*colRows+colRows*oh*ow+outC*oh*ow))
		}
	}
	matmulNS := timeIt(20, func() {
		for _, f := range gemms {
			f()
		}
	})
	im2colNS := 0.0
	if len(im2cols) > 0 {
		im2colNS = timeIt(20, func() {
			for _, f := range im2cols {
				f()
			}
		})
	}
	res.set(d, "tensor.matmul_us", matmulNS/1e3)
	res.set(d, "tensor.matmul_gflops", flops/matmulNS)
	res.set(d, "tensor.matmul_mflop_computed", flops/1e6)
	res.set(d, "tensor.matmul_kib_computed", bytes/1024)
	res.set(d, "tensor.im2col_us", im2colNS/1e3)

	// Per-layer forward and backward on a training copy.
	train := net.Clone()
	tl := train.Layers()
	fwd := make([][]float64, len(tl))
	bwd := make([][]float64, len(tl))
	var grad *tensor.Tensor
	start := telemetry.WallNow()
	for it := 0; it < 20 || (telemetry.WallSince(start) < probeBudget && it < 10000); it++ {
		cur := x
		for i, l := range tl {
			t0 := telemetry.WallNow()
			cur = l.Forward(cur, true)
			fwd[i] = append(fwd[i], float64(telemetry.WallSince(t0).Nanoseconds()))
		}
		if grad == nil {
			grad = tensor.New(cur.Dim(0), cur.Dim(1))
		}
		nn.SoftmaxCrossEntropyInto(cur, y, grad)
		g := grad
		for i := len(tl) - 1; i >= 0; i-- {
			t0 := telemetry.WallNow()
			g = tl[i].Backward(g)
			bwd[i] = append(bwd[i], float64(telemetry.WallSince(t0).Nanoseconds()))
		}
		train.ZeroGrad()
	}
	for i, l := range tl {
		res.set(d, layerMetricName(i, l, "fwd"), median(fwd[i])/1e3)
		res.set(d, layerMetricName(i, l, "bwd"), median(bwd[i])/1e3)
	}
	opt := nn.NewSGD(in.lr)
	res.set(d, "nn.train_step_us", timeIt(20, func() { train.TrainStep(x, y, opt) })/1e3)
	tx, ty := in.test.All()
	var acc float64
	res.set(d, "nn.evaluate_ms", timeIt(3, func() { acc, _ = net.Evaluate(tx, ty) })/1e6)
	if !(acc > 1.0/chanceClasses) {
		return fmt.Errorf("probe: final model evaluates to %.4f, not above chance", acc)
	}
	return nil
}

// probeControl replays the run's mobility from step 0 — the same source,
// so the same member lists — timing StepSource.AdvanceTo and
// MemberIndex.AdvanceWith, and runs the sampling layer over those member
// lists: UCB estimates from the run's own estimator (a fresh one when the
// estimator lives behind RPC), and, when the run made no in-situ sampling
// calls, MACH probabilities, floor clamps, Bernoulli coins and observations
// of the coin-sampled devices. Observations in that replay carry each
// device's current estimate as its gradient norm.
func probeControl(in *layerInputs, tr *tracer, res *result) error {
	d := perLayerMetrics
	src, err := in.source()
	if err != nil {
		return err
	}
	edges, devices, _ := src.Dims()
	mach, err := sampling.NewMACH(devices, in.mach)
	if err != nil {
		return err
	}
	book := in.book
	if book == nil {
		book = mach.Book()
	}
	replay := tr.probN.Load() == 0
	rng := rand.New(rand.NewSource(in.archSeed))
	row := make([]int, devices)
	ix := mobility.NewMemberIndexWindow(0, edges)
	est := make([]float64, devices)
	probs := make([]float64, devices)
	var scratch []float64
	var advNS, ixNS, ucbNS, probNS, obsNS, moves, ucbN, probN, obsN, clamps, decisions, sampledN int64
	for t := 0; t < in.steps; t++ {
		t0 := telemetry.WallNow()
		mv, rebuilt, err := src.AdvanceTo(t)
		advNS += telemetry.WallSince(t0).Nanoseconds()
		if err != nil {
			return err
		}
		if t == 0 || rebuilt {
			row = src.Snapshot(row)
			rebuilt = true
		} else {
			mobility.ApplyMoves(row, mv)
		}
		moves += int64(len(mv))
		t1 := telemetry.WallNow()
		ix.AdvanceWith(t, row, mv, rebuilt)
		ixNS += telemetry.WallSince(t1).Nanoseconds()
		var sampled []int
		for n := 0; n < edges; n++ {
			members := ix.Members(n)
			if len(members) == 0 {
				continue
			}
			t2 := telemetry.WallNow()
			book.UCBEstimatesInto(est[:len(members)], members, t)
			ucbNS += telemetry.WallSince(t2).Nanoseconds()
			ucbN++
			if !replay {
				continue
			}
			ctx := sampling.EdgeContext{Step: t, Edge: n, Capacity: in.capacity, Members: members, RNG: rng, Scratch: scratch}
			t3 := telemetry.WallNow()
			q := mach.ProbabilitiesInto(&ctx, probs)
			probNS += telemetry.WallSince(t3).Nanoseconds()
			probN++
			scratch = ctx.Scratch
			for i, m := range members {
				decisions++
				if q[i] <= in.mach.QMin {
					clamps++
				}
				if rng.Float64() < q[i] {
					sampled = append(sampled, m)
				}
			}
		}
		if replay {
			norms := make([][]float64, len(sampled))
			for i, m := range sampled {
				norms[i] = make([]float64, in.localEpochs)
				for j := range norms[i] {
					norms[i][j] = book.UCBEstimate(m, t)
				}
			}
			t4 := telemetry.WallNow()
			mach.ObserveBatch(t, nil, sampled, norms)
			obsNS += telemetry.WallSince(t4).Nanoseconds()
			obsN++
			sampledN += int64(len(sampled))
			if (t+1)%in.cloudInterval == 0 {
				mach.CloudRound(t + 1)
			}
		}
	}
	steps := float64(max(in.steps, 1))
	res.set(d, "mobility.advance_us", float64(advNS)/steps/1e3)
	res.set(d, "mobility.index_advance_us", float64(ixNS)/steps/1e3)
	res.set(d, "mobility.moves_per_step", float64(moves)/steps)
	res.set(d, "sampling.ucb_estimates_us", float64(ucbNS)/float64(max(ucbN, 1))/1e3)
	if replay {
		res.set(d, "sampling.probabilities_us", float64(probNS)/float64(max(probN, 1))/1e3)
		res.set(d, "sampling.observe_us", float64(obsNS)/float64(max(obsN, 1))/1e3)
		if tr.hists["edge_sampled"].count == 0 {
			res.set(d, "sampling.sampled_per_step", float64(sampledN)/steps)
		}
		res.set(d, "sampling.floor_clamp_ratio", float64(clamps)/float64(max(decisions, 1)))
	}
	return nil
}

// probeCodec encodes the run's final global model against its initial one
// with the delta codec — the dominant blob of the fed protocol — and
// checks the round trip is bit-exact.
func probeCodec(in *layerInputs, res *result) error {
	d := perLayerMetrics
	var blob codec.Blob
	var err error
	enc := timeIt(20, func() { blob, err = codec.Encode(codec.SchemeDelta, in.final, in.initial, 1, nil) })
	if err != nil {
		return err
	}
	var back []float64
	dec := timeIt(20, func() { back, err = codec.Decode(blob, in.initial) })
	if err != nil {
		return err
	}
	for i := range back {
		if math.Float64bits(back[i]) != math.Float64bits(in.final[i]) {
			return fmt.Errorf("probe: delta codec round trip changed parameter %d", i)
		}
	}
	res.set(d, "codec.encode_us", enc/1e3)
	res.set(d, "codec.decode_us", dec/1e3)
	res.set(d, "codec.ratio", float64(8*len(in.final))/float64(max(len(blob.Data), 1)))
	return nil
}

// probeDataset regenerates the workload's datasets three times.
func probeDataset(in *layerInputs, res *result) error {
	var part, gen []float64
	for i := 0; i < 3; i++ {
		_, _, p, g, err := in.data.build()
		if err != nil {
			return err
		}
		part = append(part, float64(p.Nanoseconds()))
		gen = append(gen, float64(g.Nanoseconds()))
	}
	res.set(perLayerMetrics, "dataset.partition_ms", median(part)/1e6)
	res.set(perLayerMetrics, "dataset.generate_ms", median(gen)/1e6)
	return nil
}

// traceWorkload is the traced run. It runs each world untraced and then
// traced — the pairs give the tracing overhead, and the determinism gate
// checks the traced run against the untraced one — cycling through the
// worlds for most of the budget. It reads the program's telemetry from
// the traced runs, then probes each layer from outside with the last
// traced world's own inputs.
func traceWorkload(w *workload, seed int64, budget time.Duration, out io.Writer) *result {
	res := newResult()
	tr := newTracer()
	g := newGate(w, seed, res, out)
	var in *layerInputs
	var overhead []float64
	start := telemetry.WallNow()
	for pair := 1; ; pair++ {
		world := (pair - 1) % w.worlds
		plain, ok1 := g.run(world, nil)
		traced, ok2 := g.run(world, tr)
		if ok1 && ok2 {
			overhead = append(overhead, 100*(float64(traced.st.wallNS)/float64(plain.st.wallNS)-1))
			in = traced.in
		}
		if el := telemetry.WallSince(start); el+el/time.Duration(pair) > budget*7/10 {
			break
		}
	}
	if in == nil || tr.steps == 0 {
		res.fail(out, "%s: no traced repetition completed", w.name)
		return res
	}
	d := perLayerMetrics
	for _, m := range d {
		res.set(d, m.Name, 0)
	}
	res.set(d, "telemetry.trace_overhead_pct", median(overhead))

	res.set(d, "hfl.decide_ms", tr.meanMS("decide_ns"))
	res.set(d, "hfl.train_ms", tr.meanMS("train_ns"))
	res.set(d, "hfl.finalize_ms", tr.meanMS("aggregate_ns"))
	res.set(d, "hfl.eval_ms", tr.meanMS("eval_ns"))
	res.set(d, "hfl.cloud_reduce_ms", tr.meanMS("span_cloud_reduce_ns"))
	res.set(d, "hfl.queue_depth", tr.qDepth)
	r := &tr.recon
	if r.steps > 0 {
		per := func(ns int64) float64 { return float64(ns) / float64(r.steps) / 1e6 }
		var parts int64
		for _, v := range r.parts {
			parts += v
		}
		res.set(d, "hfl.unaccounted_ms", per(r.gapNS))
		res.set(d, "reconcile.step_ms", per(r.stepNS))
		res.set(d, "reconcile.parts_ms", per(parts))
		res.set(d, "reconcile.gap_ms", per(r.gapNS))
		res.set(d, "reconcile.gap_pct", 100*float64(r.gapNS)/float64(r.stepNS))
	}
	r.write(out, w.name)

	var rpcSum, handleSum, rpcCalls int64
	for name, h := range tr.hists {
		switch {
		case strings.HasPrefix(name, "span_rpc_"):
			rpcSum += h.sum
			rpcCalls += h.count
		case strings.HasPrefix(name, "span_handle_"):
			handleSum += h.sum
		}
	}
	res.set(d, "fed.rpc_edge_step_ms", tr.meanMS("span_rpc_edge_step_ns"))
	res.set(d, "fed.handle_train_many_ms", tr.meanMS("span_handle_train_many_ns"))
	if rpcCalls > 0 {
		res.set(d, "fed.rpc_wait_ms", float64(rpcSum-handleSum)/float64(rpcCalls)/1e6)
	}
	res.set(d, "fed.rpc_calls_per_step", float64(rpcCalls)/float64(tr.steps))

	if n := tr.probN.Load(); n > 0 {
		res.set(d, "sampling.probabilities_us", float64(tr.probNS.Load())/float64(n)/1e3)
		res.set(d, "sampling.observe_us", float64(tr.obsNS.Load())/float64(max(tr.obsN.Load(), 1))/1e3)
		res.set(d, "sampling.floor_clamp_ratio", float64(tr.counts["prob_floor_clamps"])/float64(max(tr.hists["edge_members"].sum, 1)))
	}
	if h := tr.hists["edge_sampled"]; h.count > 0 {
		res.set(d, "sampling.sampled_per_step", float64(h.sum)/float64(tr.steps))
	}

	probes := []struct {
		name string
		run  func() error
	}{
		{"model", func() error { return probeModel(in, res) }},
		{"control", func() error { return probeControl(in, tr, res) }},
		{"codec", func() error { return probeCodec(in, res) }},
		{"dataset", func() error { return probeDataset(in, res) }},
	}
	for _, p := range probes {
		if err := p.run(); err != nil {
			res.Attempted++
			res.fail(out, "%s %s probe: %v", w.name, p.name, err)
		}
	}
	return res
}
