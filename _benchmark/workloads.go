package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/mach-fl/mach/internal/bench"
	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/fed"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
)

// Workload sizes. Each operation is one closed loop of Runs: a Run starts
// when the previous one returns, and step t+1 starts when step t finishes.
const (
	cnnSteps      = 40 // fixed step budget of a cnn-mnist Run
	cpDevices     = 20000
	cpEdges       = 200
	cpSteps       = 60 // fixed step budget of a control-plane Run
	fedSteps      = 30 // fixed step budget of a fed-delta Run
	fedHosts      = 2  // device-host servers of the fed-delta deployment
	chanceClasses = 10 // every workload's task has ten classes
)

// workload is one named input set of the benchmark. Its inputs are worlds:
// world i of seed s is one environment (datasets, mobility, model seeds)
// derived from (s, i), and a pass runs worlds 0..worlds-1 once each. Small
// worlds differ a lot from one another, so a pass averages over several.
// setup builds the environment and the engine or deployment of one world
// (timed as setup_s); the operation's run drives it to completion.
type workload struct {
	name   string
	why    string
	worlds int
	setup  func(seed int64, world int, tr *tracer) (operation, error)
}

// operation is one prepared world; it is run once and closed.
type operation interface {
	run(tr *tracer) (opStats, error)
	// inputs exposes the workload's own data, model, mobility and
	// parameter vectors to the outside-in layer probes; valid after run.
	inputs() *layerInputs
	close() error
}

var workloads = []*workload{
	{"fig3-mnist-mlp", "the paper's Fig. 3 metric: US/CS/SS/MACH/MACH-P to 0.74 accuracy on the CI MNIST cell; training and per-step evaluation dominate", 6, setupFig3},
	{"cnn-mnist", "the paper's 2-conv MNIST CNN under MACH for a fixed budget; the tensor and nn conv kernels do the work", 6, setupCNN},
	{"control-plane", "20k devices over 200 edges, streaming Markov mobility, MACH, tiny MLP; mobility, sampling and aggregation take ~40% of a step, against 13% at most elsewhere", 6, setupControlPlane},
	{"fed-delta", "the loopback fed stack with the delta codec for a fixed budget; codec and gob+RPC do the work the engine never calls", 12, setupFedDelta},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opStats is what one operation did.
type opStats struct {
	runs      int
	wallNS    int64 // Σ Run wall time
	steps     int   // Σ steps run
	trained   int64 // local updates
	decisions int64 // Σ_t devices: one sampling decision per attached device per step
	accSum    float64
	commBytes int64
	stepNS    []int64 // per-step latency samples
	digest    uint64  // final parameters and sampled counts, bit for bit
	target    bool    // Runs stopped at an accuracy target
	heapBytes uint64  // live heap after the Runs, the world still held
	bad       []string
}

// digest folds integers and float64 bit patterns, byte by byte, into one
// FNV-64a sum.
type digest uint64

func newDigest() *digest {
	d := digest(14695981039346656037)
	return &d
}

func (d *digest) add(v uint64) {
	for i := 0; i < 8; i++ {
		*d = (*d ^ digest(byte(v>>(8*i)))) * 1099511628211
	}
}

func (d *digest) floats(v ...float64) {
	for _, x := range v {
		d.add(math.Float64bits(x))
	}
}

func (st *opStats) checkAccuracy(label string, acc float64) {
	if !(acc > 1.0/chanceClasses) {
		st.bad = append(st.bad, fmt.Sprintf("%s: final accuracy %.4f not above chance", label, acc))
	}
}

// dataSpec is everything needed to regenerate a workload's datasets.
type dataSpec struct {
	spec     dataset.TaskSpec
	part     dataset.PartitionConfig
	testN    int
	testSeed int64
}

// build generates the task, the device partition and the test set, and
// reports the time of the partition and of the generation (task prototypes
// plus test set) separately.
func (d dataSpec) build() (parts []*dataset.Dataset, test *dataset.Dataset, partition, generate time.Duration, err error) {
	t0 := telemetry.WallNow()
	task, err := dataset.NewTask(d.spec)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	t1 := telemetry.WallNow()
	parts, err = dataset.Partition(task, d.part)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	t2 := telemetry.WallNow()
	test, err = task.Generate(rand.New(rand.NewSource(d.testSeed)), d.testN, nil)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	t3 := telemetry.WallNow()
	return parts, test, t2.Sub(t1), t1.Sub(t0) + t3.Sub(t2), nil
}

// benchData is the dataSpec bench.Config.BuildEnvironment(run) realizes
// for an MNIST config with the default balanced test law.
func benchData(cfg bench.Config, run int) dataSpec {
	seed := cfg.Seed + int64(run)*7919
	return dataSpec{
		spec: dataset.MNISTLike(cfg.ImageSize, cfg.ImageSize),
		part: dataset.PartitionConfig{
			Devices:             cfg.Devices,
			SamplesPerDevice:    cfg.SamplesPerDevice,
			TailRatio:           cfg.TailRatio,
			GlobalTailRatio:     cfg.GlobalTailRatio,
			NoisyDeviceFraction: cfg.NoisyDevices,
			NoisyLabelFraction:  cfg.NoisyLabels,
			Seed:                seed,
		},
		testN:    cfg.TestSamples,
		testSeed: seed + 1,
	}
}

// layerInputs is the workload's own traffic, handed to the layer probes.
type layerInputs struct {
	arch          hfl.ArchFunc
	archSeed      int64
	device        *dataset.Dataset // one device's local data
	batchSize     int
	lr            float64
	test          *dataset.Dataset
	source        func() (mobility.StepSource, error) // the run's mobility, from step 0
	steps         int                                 // steps the run executed
	capacity      float64
	mach          sampling.MACHConfig
	localEpochs   int
	cloudInterval int
	data          dataSpec
	book          *sampling.ExperienceBook // the run's estimator; nil when the engine holds none
	initial       []float64
	final         []float64
}

// engineCase is one hfl.Engine Run of an operation.
type engineCase struct {
	label   string
	eng     *hfl.Engine
	target  float64 // 0: run the whole budget
	devices int
	in      *layerInputs
}

type engineOp struct{ cases []engineCase }

func (o *engineOp) close() error { return nil }

// inputs are those of the operation's last Run that carries them (the last
// MACH Run of fig3-mnist-mlp).
func (o *engineOp) inputs() *layerInputs {
	var in *layerInputs
	for _, c := range o.cases {
		if c.in != nil {
			in = c.in
		}
	}
	return in
}

func (o *engineOp) run(tr *tracer) (opStats, error) {
	var st opStats
	dg := newDigest()
	for _, c := range o.cases {
		var last time.Time
		opts := []hfl.RunOption{hfl.WithStepHook(func(int, int) {
			now := telemetry.WallNow()
			st.stepNS = append(st.stepNS, now.Sub(last).Nanoseconds())
			last = now
		})}
		if c.target > 0 {
			opts = append(opts, hfl.WithTarget(c.target))
			st.target = true
		}
		if tr != nil && c.in != nil {
			c.in.initial = c.eng.GlobalParams()
		}
		tel := tr.telemetry()
		c.eng.SetTelemetry(tel)
		start := telemetry.WallNow()
		last = start
		res, err := c.eng.Run(opts...)
		wall := telemetry.WallSince(start)
		if err != nil {
			return st, fmt.Errorf("%s: %w", c.label, err)
		}
		acc := res.History.FinalAccuracy()
		st.runs++
		st.wallNS += wall.Nanoseconds()
		st.steps += res.StepsRun
		st.trained += res.Comm.DeviceDownloads
		st.decisions += int64(c.devices) * int64(res.StepsRun)
		st.accSum += acc
		st.commBytes += res.Comm.Total()
		st.checkAccuracy(c.label, acc)
		final := c.eng.GlobalParams()
		dg.floats(final...)
		dg.add(uint64(res.StepsRun))
		for _, s := range res.SampledPerStep {
			dg.add(uint64(s))
		}
		if c.in != nil {
			c.in.steps = res.StepsRun
			c.in.final = final
		}
		tr.collect(res.StepsRun, tel)
	}
	st.digest = uint64(*dg)
	return st, nil
}

// engineInputs gathers the probe inputs of one bench.Config engine Run.
func engineInputs(cfg bench.Config, run int, env *bench.Environment, archSeed int64, book *sampling.ExperienceBook) *layerInputs {
	return &layerInputs{
		arch:          cfg.Arch(),
		archSeed:      archSeed,
		device:        env.DeviceData[0],
		batchSize:     cfg.BatchSize,
		lr:            cfg.LearningRate,
		test:          env.Test,
		source:        func() (mobility.StepSource, error) { return env.Schedule, nil },
		capacity:      cfg.Participation * float64(cfg.Devices) / float64(cfg.Edges),
		mach:          cfg.MACH,
		localEpochs:   cfg.LocalEpochs,
		cloudInterval: cfg.CloudInterval,
		data:          benchData(cfg, run),
		book:          book,
	}
}

// machBook returns the estimator of a MACH strategy, nil for others.
func machBook(s sampling.Strategy) *sampling.ExperienceBook {
	if m, ok := s.(*sampling.MACH); ok {
		return m.Book()
	}
	return nil
}

// setupFig3 builds one environment of the Fig. 3 cell (bench's run index
// = world) and one engine per compared strategy on it.
func setupFig3(seed int64, world int, tr *tracer) (operation, error) {
	cfg := bench.TaskPreset(bench.TaskMNIST, bench.ScaleCI)
	cfg.Seed = seed
	env, err := cfg.BuildEnvironment(world)
	if err != nil {
		return nil, err
	}
	hcfg := cfg.HFLConfig(world)
	hcfg.Workers = runtime.GOMAXPROCS(0)
	op := &engineOp{}
	for _, name := range bench.AllStrategies() {
		strat, err := cfg.NewStrategy(name)
		if err != nil {
			return nil, err
		}
		c := engineCase{label: name, target: cfg.TargetAccuracy, devices: cfg.Devices}
		if name == bench.StratMACH {
			c.in = engineInputs(cfg, world, env, hcfg.Seed, machBook(strat))
		}
		if c.eng, err = hfl.New(hcfg, cfg.Arch(), env.DeviceData, env.Test, env.Schedule, tr.wrap(strat)); err != nil {
			return nil, err
		}
		op.cases = append(op.cases, c)
	}
	return op, nil
}

func setupCNN(seed int64, world int, tr *tracer) (operation, error) {
	cfg := bench.TaskPreset(bench.TaskMNIST, bench.ScaleCI)
	cfg.Model = "cnn" // nn.MNISTCNNConfig at the cell's 8×8 input
	cfg.Steps = cnnSteps
	cfg.EvalEvery = cfg.CloudInterval // evaluate at cloud rounds: training is the measured work
	cfg.Seed = seed
	env, err := cfg.BuildEnvironment(world)
	if err != nil {
		return nil, err
	}
	strat, err := cfg.NewStrategy(bench.StratMACH)
	if err != nil {
		return nil, err
	}
	hcfg := cfg.HFLConfig(world)
	hcfg.Workers = runtime.GOMAXPROCS(0)
	eng, err := hfl.New(hcfg, cfg.Arch(), env.DeviceData, env.Test, env.Schedule, tr.wrap(strat))
	if err != nil {
		return nil, err
	}
	return &engineOp{cases: []engineCase{{
		label: "mach", eng: eng, devices: cfg.Devices,
		in: engineInputs(cfg, world, env, hcfg.Seed, machBook(strat)),
	}}}, nil
}

// controlPlaneData is the control-plane workload's population: 4×4 MNIST-
// like images, a few samples per device, long-tailed non-IID labels.
func controlPlaneData(seed int64) dataSpec {
	return dataSpec{
		spec: dataset.MNISTLike(4, 4),
		part: dataset.PartitionConfig{
			Devices:          cpDevices,
			SamplesPerDevice: 8,
			TailRatio:        0.2,
			GlobalTailRatio:  0.6,
			Seed:             seed,
		},
		testN:    500,
		testSeed: seed + 1,
	}
}

func controlPlaneArch(rng *rand.Rand) (*nn.Network, error) {
	return nn.NewMLP("cp-mlp", 16, []int{8}, 10, rng), nil
}

func setupControlPlane(seed int64, world int, tr *tracer) (operation, error) {
	seed += int64(world) * 7919
	data := controlPlaneData(seed)
	parts, test, _, _, err := data.build()
	if err != nil {
		return nil, err
	}
	newSource := func() (mobility.StepSource, error) {
		return mobility.NewMarkovSource(seed+2, cpEdges, cpDevices, cpSteps, 0.9)
	}
	src, err := newSource()
	if err != nil {
		return nil, err
	}
	hcfg := hfl.DefaultConfig()
	hcfg.Steps = cpSteps
	hcfg.CloudInterval = 5
	hcfg.LocalEpochs = 1
	hcfg.BatchSize = 8
	hcfg.LearningRate = 0.05
	hcfg.Participation = 0.05
	hcfg.EvalEvery = 0
	hcfg.Seed = seed + 3
	hcfg.Workers = runtime.GOMAXPROCS(0)
	machCfg := sampling.DefaultMACHConfig()
	strat, err := sampling.NewMACH(cpDevices, machCfg)
	if err != nil {
		return nil, err
	}
	eng, err := hfl.New(hcfg, controlPlaneArch, parts, test, src, tr.wrap(strat))
	if err != nil {
		return nil, err
	}
	in := &layerInputs{
		arch:          controlPlaneArch,
		archSeed:      hcfg.Seed,
		device:        parts[0],
		batchSize:     hcfg.BatchSize,
		lr:            hcfg.LearningRate,
		test:          test,
		source:        newSource,
		capacity:      hcfg.Participation * cpDevices / cpEdges,
		mach:          machCfg,
		localEpochs:   hcfg.LocalEpochs,
		cloudInterval: hcfg.CloudInterval,
		data:          data,
		book:          strat.Book(),
	}
	return &engineOp{cases: []engineCase{{label: "mach", eng: eng, devices: cpDevices, in: in}}}, nil
}

// fedOp is one loopback deployment: device hosts, one edge server per edge
// and a cloud coordinator, all in this process over 127.0.0.1 TCP.
type fedOp struct {
	cfg   bench.Config
	cloud *fed.Cloud
	hosts []*fed.DeviceServer
	edges []*fed.EdgeServer
	in    *layerInputs
}

func (o *fedOp) inputs() *layerInputs { return o.in }

// close stops the cloud's connections and every server, joining their
// errors.
func (o *fedOp) close() error {
	var errs []error
	if o.cloud != nil {
		errs = append(errs, o.cloud.Close())
	}
	for _, e := range o.edges {
		errs = append(errs, e.Close())
	}
	for _, s := range o.hosts {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

func setupFedDelta(seed int64, world int, _ *tracer) (operation, error) {
	cfg := bench.CommBenchPreset()
	cfg.Steps = fedSteps
	cfg.Seed = seed + int64(world)*7919
	seed = cfg.Seed
	env, err := cfg.BuildEnvironment(0)
	if err != nil {
		return nil, err
	}
	o := &fedOp{cfg: cfg}
	table := map[int]string{}
	var hostAddrs []string
	for h := 0; h < fedHosts; h++ {
		data := map[int]*dataset.Dataset{}
		for m := h * cfg.Devices / fedHosts; m < (h+1)*cfg.Devices/fedHosts; m++ {
			data[m] = env.DeviceData[m]
		}
		srv, err := fed.NewDeviceServer(cfg.Arch(), data, cfg.MACH, seed+int64(100+h))
		if err != nil {
			return nil, errors.Join(err, o.close())
		}
		o.hosts = append(o.hosts, srv)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, o.close())
		}
		hostAddrs = append(hostAddrs, addr)
		for m := range data {
			table[m] = addr
		}
	}
	hyper := fed.Hyper{LocalEpochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, LearningRate: cfg.LearningRate}
	var edgeAddrs []string
	for n := 0; n < cfg.Edges; n++ {
		e, err := fed.NewEdgeServer(n, cfg.MACH, hyper, seed+11, fed.StaticResolver(table), nil)
		if err != nil {
			return nil, errors.Join(err, o.close())
		}
		o.edges = append(o.edges, e)
		addr, err := e.Serve("127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, o.close())
		}
		edgeAddrs = append(edgeAddrs, addr)
	}
	o.cloud, err = fed.NewCloud(fed.CloudConfig{
		Steps:         cfg.Steps,
		CloudInterval: cfg.CloudInterval,
		Participation: cfg.Participation,
		EvalEvery:     cfg.EvalEvery,
		Seed:          seed,
		Codec:         codec.SchemeDelta,
	}, cfg.Arch(), env.Schedule, env.Test, edgeAddrs, hostAddrs)
	if err != nil {
		return nil, errors.Join(err, o.close())
	}
	initial, err := cfg.Arch()(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, errors.Join(err, o.close())
	}
	o.in = engineInputs(cfg, 0, env, seed, nil)
	o.in.initial = initial.ParamVector()
	return o, nil
}

func (o *fedOp) run(tr *tracer) (opStats, error) {
	var st opStats
	// The cloud always carries a span-free telemetry sink: its step
	// histogram is the only per-step latency a fed.Cloud Run exposes.
	cloudTel := tr.telemetry()
	if cloudTel == nil {
		cloudTel = telemetry.New()
	}
	fleetTel := tr.telemetry() // edges and hosts, kept apart from the cloud's step histogram
	o.cloud.SetTelemetry(cloudTel)
	for _, e := range o.edges {
		e.SetTelemetry(fleetTel)
	}
	for _, s := range o.hosts {
		s.SetTelemetry(fleetTel)
	}
	start := telemetry.WallNow()
	hist, err := o.cloud.Run()
	wall := telemetry.WallSince(start)
	if err != nil {
		return st, err
	}
	comm, err := o.cloud.CommStats()
	if err != nil {
		return st, err
	}
	acc := hist.FinalAccuracy()
	st.runs = 1
	st.wallNS = wall.Nanoseconds()
	st.steps = o.cfg.Steps
	st.trained = comm.DeviceUploads
	st.decisions = int64(o.cfg.Devices) * int64(o.cfg.Steps)
	st.accSum = acc
	st.commBytes = comm.Total()
	st.stepNS = histSamples(cloudTel.Snapshot().Histograms["step_ns"])
	st.checkAccuracy("fed-delta", acc)
	o.in.final = o.cloud.GlobalParams()
	o.in.steps = o.cfg.Steps
	dg := newDigest()
	dg.floats(o.in.final...)
	for _, p := range hist.Points {
		dg.add(uint64(p.Step))
		dg.floats(p.Accuracy, p.Loss)
	}
	dg.add(uint64(comm.DeviceUploads))
	st.digest = uint64(*dg)
	tr.collect(o.cfg.Steps, cloudTel, fleetTel)
	return st, nil
}

// histSamples expands a histogram snapshot into one sample per
// observation, spread evenly across its bucket (buckets are within 6.25%).
func histSamples(hs telemetry.HistSnapshot) []int64 {
	var out []int64
	for _, b := range hs.Buckets {
		for i := int64(0); i < b.Count; i++ {
			out = append(out, b.Lo+(b.Hi-b.Lo)*(2*i+1)/(2*b.Count))
		}
	}
	return out
}
