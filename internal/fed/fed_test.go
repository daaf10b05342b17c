package fed

import (
	"fmt"
	"math"
	"math/rand"
	"net/rpc"
	"runtime"
	"testing"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
)

func testArch(rng *rand.Rand) (*nn.Network, error) {
	return nn.NewMLP("fed-test", 16, []int{8}, 10, rng), nil
}

// deployment spins up a full in-process cluster on loopback TCP: `hosts`
// device hosts splitting the device population, `edges` edge servers, and a
// cloud driving the run under the given wire format.
type deployment struct {
	cloud   *Cloud
	devices []*DeviceServer
	edges   []*EdgeServer
}

func (d *deployment) close() {
	if d.cloud != nil {
		d.cloud.Close()
	}
	for _, e := range d.edges {
		e.Close()
	}
	for _, s := range d.devices {
		s.Close()
	}
}

func deploy(t *testing.T, devices, edges, steps, hosts int, scheme codec.Scheme) *deployment {
	t.Helper()
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.Partition(task, dataset.PartitionConfig{
		Devices: devices, SamplesPerDevice: 40, TailRatio: 0.4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	test, err := task.Generate(rand.New(rand.NewSource(2)), 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := mobility.GenerateSchedule(3, edges, devices, steps, 3)
	if err != nil {
		t.Fatal(err)
	}

	d := &deployment{}
	machCfg := sampling.DefaultMACHConfig()

	// Device hosts splitting the population into contiguous ranges.
	table := map[int]string{}
	for h := 0; h < hosts; h++ {
		data := map[int]*dataset.Dataset{}
		for m := h * devices / hosts; m < (h+1)*devices/hosts; m++ {
			data[m] = parts[m]
		}
		srv, err := NewDeviceServer(testArch, data, machCfg, int64(100+h))
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d.devices = append(d.devices, srv)
		for m := range data {
			table[m] = addr
		}
	}

	hyper := Hyper{LocalEpochs: 2, BatchSize: 4, LearningRate: 0.05}
	rng := rand.New(rand.NewSource(4))
	base, err := testArch(rng)
	if err != nil {
		t.Fatal(err)
	}
	var edgeAddrs []string
	for n := 0; n < edges; n++ {
		e, err := NewEdgeServer(n, machCfg, hyper, 5, StaticResolver(table), base.ParamVector())
		if err != nil {
			t.Fatal(err)
		}
		addr, err := e.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d.edges = append(d.edges, e)
		edgeAddrs = append(edgeAddrs, addr)
	}

	var hostAddrs []string
	for _, s := range d.devices {
		hostAddrs = append(hostAddrs, s.listener.Addr().String())
	}
	cloud, err := NewCloud(CloudConfig{
		Steps: steps, CloudInterval: 5, Participation: 0.5, EvalEvery: 5, Seed: 6,
		Codec: scheme,
	}, testArch, sched, test, edgeAddrs, hostAddrs)
	if err != nil {
		t.Fatal(err)
	}
	d.cloud = cloud
	return d
}

func TestDistributedTrainingLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("full 30-step deployment is not short")
	}
	d := deploy(t, 8, 2, 30, 2, codec.SchemeDelta)
	defer d.close()
	hist, err := d.cloud.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() == 0 {
		t.Fatal("no evaluations")
	}
	if hist.FinalAccuracy() < 0.3 {
		t.Fatalf("distributed run failed to learn: final accuracy %.3f", hist.FinalAccuracy())
	}
	if len(d.cloud.GlobalParams()) == 0 {
		t.Fatal("empty global model")
	}
}

func TestDeviceServerRPCs(t *testing.T) {
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := task.Generate(rand.New(rand.NewSource(1)), 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDeviceServer(testArch, map[int]*dataset.Dataset{3: data}, sampling.DefaultMACHConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var ping PingReply
	if err := client.Call("Device.Ping", PingArgs{}, &ping); err != nil {
		t.Fatal(err)
	}
	if ping.Role != "device-host" {
		t.Fatalf("role %q", ping.Role)
	}

	// Estimate before any training: pure exploration score.
	var est EstimateReply
	if err := client.Call("Device.Estimate", EstimateArgs{Step: 10, Devices: []int{3}}, &est); err != nil {
		t.Fatal(err)
	}
	if len(est.Estimates) != 1 || est.Estimates[0] <= 0 {
		t.Fatalf("estimates %v", est.Estimates)
	}
	// Unknown device errors.
	if err := client.Call("Device.Estimate", EstimateArgs{Step: 10, Devices: []int{99}}, &est); err == nil {
		t.Fatal("expected error for unknown device")
	}

	// Train round-trip: returns params and I gradient norms, and the
	// experience changes the estimate after a cloud round.
	rng := rand.New(rand.NewSource(2))
	base, err := testArch(rng)
	if err != nil {
		t.Fatal(err)
	}
	var tr TrainReply
	args := TrainArgs{
		Step: 0, Device: 3, Params: base.ParamVector(),
		Hyper: Hyper{LocalEpochs: 3, BatchSize: 4, LearningRate: 0.1},
	}
	if err := client.Call("Device.Train", args, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.SqNorms) != 3 {
		t.Fatalf("%d gradient norms, want 3", len(tr.SqNorms))
	}
	if len(tr.Params) != len(args.Params) {
		t.Fatal("parameter length changed")
	}
	changed := false
	for i := range tr.Params {
		if tr.Params[i] != args.Params[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("training did not change the model")
	}
	var cr CloudRoundReply
	if err := client.Call("Device.CloudRound", CloudRoundArgs{Step: 1}, &cr); err != nil {
		t.Fatal(err)
	}

	// Bad hyperparameters are rejected.
	bad := args
	bad.Hyper.BatchSize = 0
	if err := client.Call("Device.Train", bad, &tr); err == nil {
		t.Fatal("expected error for invalid hyperparameters")
	}

	// Class distributions round-trip.
	var cd ClassDistReply
	if err := client.Call("Device.ClassDist", ClassDistArgs{Devices: []int{3}}, &cd); err != nil {
		t.Fatal(err)
	}
	if len(cd.Distributions) != 1 || len(cd.Distributions[0]) != 10 {
		t.Fatalf("class distributions %v", cd.Distributions)
	}
}

func TestEdgeServerValidation(t *testing.T) {
	if _, err := NewEdgeServer(0, sampling.DefaultMACHConfig(), Hyper{}, 1, nil, nil); err == nil {
		t.Fatal("expected error for nil resolver")
	}
	bad := sampling.DefaultMACHConfig()
	bad.Alpha = 5
	if _, err := NewEdgeServer(0, bad, Hyper{}, 1, StaticResolver(nil), nil); err == nil {
		t.Fatal("expected error for invalid MACH config")
	}
	res := StaticResolver(map[int]string{1: "addr"})
	if _, err := res(2); err == nil {
		t.Fatal("expected resolver miss")
	}
}

func TestCloudConfigValidation(t *testing.T) {
	valid := CloudConfig{Steps: 10, CloudInterval: 5, Participation: 0.5}
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*CloudConfig)
	}{
		{"zero steps", func(c *CloudConfig) { c.Steps = 0 }},
		{"zero interval", func(c *CloudConfig) { c.CloudInterval = 0 }},
		{"participation", func(c *CloudConfig) { c.Participation = 0 }},
		{"negative eval", func(c *CloudConfig) { c.EvalEvery = -1 }},
		{"bad codec", func(c *CloudConfig) { c.Codec = codec.Scheme(99) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := valid
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestNewDeviceServerValidation(t *testing.T) {
	if _, err := NewDeviceServer(testArch, nil, sampling.DefaultMACHConfig(), 1); err == nil {
		t.Fatal("expected error for empty device map")
	}
	empty := dataset.NewDataset("empty", 1, 4, 4, 10)
	if _, err := NewDeviceServer(testArch, map[int]*dataset.Dataset{0: empty}, sampling.DefaultMACHConfig(), 1); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestEdgeStepFailsOnDeadDeviceHost(t *testing.T) {
	base, err := testArch(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Resolver points at a port nothing listens on.
	e, err := NewEdgeServer(0, sampling.DefaultMACHConfig(),
		Hyper{LocalEpochs: 1, BatchSize: 2, LearningRate: 0.1}, 1,
		StaticResolver(map[int]string{0: "127.0.0.1:1"}), base.ParamVector())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var rep EdgeStepReply
	if err := e.Step(EdgeStepArgs{Step: 0, Members: []int{0}, Capacity: 1}, &rep); err == nil {
		t.Fatal("expected dial error for dead device host")
	}
}

func TestTrainRejectsWrongParameterLength(t *testing.T) {
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := task.Generate(rand.New(rand.NewSource(1)), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDeviceServer(testArch, map[int]*dataset.Dataset{0: data}, sampling.DefaultMACHConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var tr TrainReply
	err = client.Call("Device.Train", TrainArgs{
		Device: 0, Params: []float64{1, 2, 3},
		Hyper: Hyper{LocalEpochs: 1, BatchSize: 2, LearningRate: 0.1},
	}, &tr)
	if err == nil {
		t.Fatal("expected parameter-length error over RPC")
	}
}

func TestEdgeStepEmptyMembersKeepsModel(t *testing.T) {
	base, err := testArch(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	params := base.ParamVector()
	e, err := NewEdgeServer(0, sampling.DefaultMACHConfig(),
		Hyper{LocalEpochs: 1, BatchSize: 2, LearningRate: 0.1}, 1,
		StaticResolver(nil), params)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Raw format: the reply carries the unchanged vector directly.
	var rep EdgeStepReply
	if err := e.Step(EdgeStepArgs{Step: 3, Members: nil, Capacity: 2, Scheme: codec.SchemeRaw}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sampled != 0 || len(rep.Params) != len(params) {
		t.Fatalf("empty edge step changed state: sampled=%d", rep.Sampled)
	}
	for i := range params {
		if rep.Params[i] != params[i] {
			t.Fatal("edge model changed without participants")
		}
	}

	// Codec format: the model only travels when asked for, as a blob.
	rep = EdgeStepReply{}
	if err := e.Step(EdgeStepArgs{Step: 4, Members: nil, Capacity: 2}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.HasModel || rep.Params != nil {
		t.Fatal("codec edge step shipped a model nobody asked for")
	}
	rep = EdgeStepReply{}
	if err := e.Step(EdgeStepArgs{Step: 5, Members: nil, Capacity: 2, WantModel: true}, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.HasModel {
		t.Fatal("codec edge step did not return the requested model")
	}
	got, err := codec.Decode(rep.Model, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range params {
		if math.Float64bits(got[i]) != math.Float64bits(params[i]) {
			t.Fatal("decoded edge model differs from the installed parameters")
		}
	}
}

func TestNewCloudValidation(t *testing.T) {
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	test, err := task.Generate(rand.New(rand.NewSource(1)), 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := mobility.GenerateSchedule(2, 2, 4, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CloudConfig{Steps: 10, CloudInterval: 5, Participation: 0.5, Seed: 1}

	if _, err := NewCloud(cfg, testArch, nil, test, []string{"a", "b"}, nil); err == nil {
		t.Fatal("expected nil-schedule error")
	}
	if _, err := NewCloud(cfg, testArch, sched, test, []string{"only-one"}, nil); err == nil {
		t.Fatal("expected edge-count mismatch error")
	}
	long := cfg
	long.Steps = 99
	if _, err := NewCloud(long, testArch, sched, test, []string{"a", "b"}, nil); err == nil {
		t.Fatal("expected short-schedule error")
	}
	if _, err := NewCloud(cfg, testArch, sched, nil, []string{"a", "b"}, nil); err == nil {
		t.Fatal("expected empty-test error")
	}
	// Valid inputs but unreachable edge addresses: dial must fail.
	if _, err := NewCloud(cfg, testArch, sched, test, []string{"127.0.0.1:1", "127.0.0.1:1"}, nil); err == nil {
		t.Fatal("expected dial error")
	}
}

// runDeployment spins up a cluster, runs it to completion and returns the
// evaluation history, the final global model and the measured comm stats.
func runDeployment(t *testing.T, hosts int, scheme codec.Scheme, steps int) (*metrics.History, []float64, hfl.CommStats) {
	t.Helper()
	d := deploy(t, 8, 2, steps, hosts, scheme)
	defer d.close()
	hist, err := d.cloud.Run()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := d.cloud.CommStats()
	if err != nil {
		t.Fatal(err)
	}
	return hist, d.cloud.GlobalParams(), stats
}

// TestDeltaCodecBitIdenticalAndCheaperThanRaw is the codec contract end to
// end: the lossless delta wire format must reproduce the raw format's
// learning trajectory bit for bit — same evaluation history, same final
// global parameters — while moving strictly fewer measured wire bytes. The
// single-host case exercises the host-side base advance (no model bytes on
// the wire between cloud rounds); the two-host case the update-sum path.
func TestDeltaCodecBitIdenticalAndCheaperThanRaw(t *testing.T) {
	for _, hosts := range []int{1, 2} {
		t.Run(fmt.Sprintf("hosts=%d", hosts), func(t *testing.T) {
			const steps = 10
			histRaw, globalRaw, commRaw := runDeployment(t, hosts, codec.SchemeRaw, steps)
			histDelta, globalDelta, commDelta := runDeployment(t, hosts, codec.SchemeDelta, steps)

			if histRaw.Len() == 0 || histRaw.Len() != histDelta.Len() {
				t.Fatalf("history lengths: raw %d, delta %d", histRaw.Len(), histDelta.Len())
			}
			for i := range histRaw.Points {
				pr, pd := histRaw.Points[i], histDelta.Points[i]
				if pr.Step != pd.Step ||
					math.Float64bits(pr.Accuracy) != math.Float64bits(pd.Accuracy) ||
					math.Float64bits(pr.Loss) != math.Float64bits(pd.Loss) {
					t.Fatalf("evaluation %d diverged: raw %+v, delta %+v", i, pr, pd)
				}
			}
			if len(globalRaw) != len(globalDelta) {
				t.Fatalf("global lengths: raw %d, delta %d", len(globalRaw), len(globalDelta))
			}
			for j := range globalRaw {
				if math.Float64bits(globalRaw[j]) != math.Float64bits(globalDelta[j]) {
					t.Fatalf("global parameter %d diverged: raw %v, delta %v", j, globalRaw[j], globalDelta[j])
				}
			}

			for _, c := range []hfl.CommStats{commRaw, commDelta} {
				if !c.Measured {
					t.Fatalf("comm stats not marked measured: %+v", c)
				}
				if c.DeviceUplinkBytes <= 0 || c.DeviceDownlinkBytes <= 0 || c.CloudBytes <= 0 {
					t.Fatalf("comm counters empty: %+v", c)
				}
			}
			rawDev := commRaw.DeviceUplinkBytes + commRaw.DeviceDownlinkBytes
			deltaDev := commDelta.DeviceUplinkBytes + commDelta.DeviceDownlinkBytes
			if deltaDev >= rawDev {
				t.Fatalf("delta device traffic %d B not below raw %d B", deltaDev, rawDev)
			}
			if commDelta.Total() >= commRaw.Total() {
				t.Fatalf("delta total %d B not below raw total %d B", commDelta.Total(), commRaw.Total())
			}
			t.Logf("hosts=%d: device bytes raw=%d delta=%d (%.1fx), total raw=%d delta=%d (%.1fx)",
				hosts, rawDev, deltaDev, float64(rawDev)/float64(deltaDev),
				commRaw.Total(), commDelta.Total(), float64(commRaw.Total())/float64(commDelta.Total()))
		})
	}
}

// TestLossySchemesStillLearn bounds the accuracy degradation of the lossy
// wire formats: a full run under float32 casting and int8 range quantization
// (with error feedback) must still clear the same accuracy bar as the
// lossless run in TestDistributedTrainingLearns.
func TestLossySchemesStillLearn(t *testing.T) {
	if testing.Short() {
		t.Skip("full 30-step deployments are not short")
	}
	for _, scheme := range []codec.Scheme{codec.SchemeFloat32, codec.SchemeInt8} {
		t.Run(scheme.String(), func(t *testing.T) {
			d := deploy(t, 8, 2, 30, 2, scheme)
			defer d.close()
			hist, err := d.cloud.Run()
			if err != nil {
				t.Fatal(err)
			}
			if hist.FinalAccuracy() < 0.3 {
				t.Fatalf("%v run degraded too far: final accuracy %.3f", scheme, hist.FinalAccuracy())
			}
		})
	}
}

// TestTrainManyUnknownBaselineOverRPC checks the baseline-cache handshake
// where it matters: across net/rpc, which flattens errors to strings. A
// TrainMany naming a base the host never saw must come back recognizable to
// isUnknownBaseline, and succeed after SetBase installs that base.
func TestTrainManyUnknownBaselineOverRPC(t *testing.T) {
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := task.Generate(rand.New(rand.NewSource(1)), 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDeviceServer(testArch, map[int]*dataset.Dataset{0: data}, sampling.DefaultMACHConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	args := TrainManyArgs{
		Edge: 0, Devices: []int{0}, BaseID: 77, Scheme: codec.SchemeDelta,
		Hyper: Hyper{LocalEpochs: 1, BatchSize: 4, LearningRate: 0.05},
	}
	var rep TrainManyReply
	err = client.Call("Device.TrainMany", args, &rep)
	if err == nil {
		t.Fatal("expected unknown-baseline error")
	}
	if !isUnknownBaseline(err) {
		t.Fatalf("error %v not recognized as unknown baseline across RPC", err)
	}

	base, err := testArch(rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	params := base.ParamVector()
	blob, err := codec.Encode(codec.SchemeDelta, params, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sbRep SetBaseReply
	if err := client.Call("Device.SetBase", SetBaseArgs{Edge: 0, ID: 77, Model: blob}, &sbRep); err != nil {
		t.Fatal(err)
	}
	rep = TrainManyReply{}
	if err := client.Call("Device.TrainMany", args, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.HasSum {
		t.Fatal("TrainMany returned no update sum")
	}
	sum, err := codec.Decode(rep.Sum, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != len(params) {
		t.Fatalf("update sum has %d params, want %d", len(sum), len(params))
	}
	if len(rep.SqNorms) != 1 || len(rep.SqNorms[0]) != 1 {
		t.Fatalf("sqNorms %v", rep.SqNorms)
	}
}

// TestSpanStitchingAcrossRPC verifies that the span context carried in RPC
// args stitches the three tiers' span rings into one tree without any shared
// sink: each server records into its own Telemetry, yet a handler span's
// Parent equals the client span ID the caller derived on its side of the
// wire, because both ends compute the same pure hash of (kind, step, edge,
// device).
func TestSpanStitchingAcrossRPC(t *testing.T) {
	d := deploy(t, 6, 2, 6, 1, codec.SchemeDelta)
	defer d.close()

	telCloud := telemetry.New()
	telCloud.EnableSpans(true)
	d.cloud.SetTelemetry(telCloud)
	telEdge := telemetry.New()
	telEdge.EnableSpans(true)
	d.edges[0].SetTelemetry(telEdge)
	telDev := telemetry.New()
	telDev.EnableSpans(true)
	d.devices[0].SetTelemetry(telDev)

	if _, err := d.cloud.Run(); err != nil {
		t.Fatal(err)
	}

	byKind := func(spans []telemetry.SpanSnapshot, kind string) []telemetry.SpanSnapshot {
		var out []telemetry.SpanSnapshot
		for _, s := range spans {
			if s.Kind == kind {
				out = append(out, s)
			}
		}
		return out
	}

	// Cloud side: every client rpc_edge_step span hangs off its step's root
	// span and has the derived ID the edge will use as its parent.
	edgeSteps := byKind(telCloud.Spans(), "rpc_edge_step")
	if len(edgeSteps) == 0 {
		t.Fatal("cloud recorded no rpc_edge_step spans")
	}
	for _, s := range edgeSteps {
		if want := uint64(telemetry.DeriveSpanID(telemetry.SpanStep, s.Step, -1, -1)); s.Parent != want {
			t.Fatalf("rpc_edge_step step %d edge %d: parent %#x, want step span %#x", s.Step, s.Edge, s.Parent, want)
		}
		if want := uint64(telemetry.DeriveSpanID(telemetry.SpanRPCEdgeStep, s.Step, s.Edge, -1)); s.ID != want {
			t.Fatalf("rpc_edge_step step %d edge %d: id %#x, want derived %#x", s.Step, s.Edge, s.ID, want)
		}
	}

	// Edge side: the handler span's parent is the cloud's client span ID —
	// carried across the wire in EdgeStepArgs.Span, never shared in memory.
	handles := byKind(telEdge.Spans(), "handle_edge_step")
	if len(handles) == 0 {
		t.Fatal("edge recorded no handle_edge_step spans")
	}
	for _, s := range handles {
		if want := uint64(telemetry.DeriveSpanID(telemetry.SpanRPCEdgeStep, s.Step, 0, -1)); s.Parent != want {
			t.Fatalf("handle_edge_step step %d: parent %#x, want cloud rpc span %#x", s.Step, s.Parent, want)
		}
	}

	// Device side: TrainMany handlers nest under the edge's per-host client
	// span (host index 0 — the deployment has a single device host).
	trains := byKind(telDev.Spans(), "handle_train_many")
	if len(trains) == 0 {
		t.Fatal("device host recorded no handle_train_many spans")
	}
	for _, s := range trains {
		if want := uint64(telemetry.DeriveSpanID(telemetry.SpanRPCTrainMany, s.Step, s.Edge, 0)); s.Parent != want {
			t.Fatalf("handle_train_many step %d edge %d: parent %#x, want edge rpc span %#x", s.Step, s.Edge, s.Parent, want)
		}
	}
}

// TestDecodesBoundedByExpectedCount: every receiver that knows the parameter
// count rejects a blob declaring another one before decoding it. The blob
// here is a genuine DEFLATE stream of 2²¹ zero params (16 MiB), so codec's
// own expansion bound admits it; only the count check stops the allocation.
func TestDecodesBoundedByExpectedCount(t *testing.T) {
	const declared = 1 << 21
	big, err := codec.Encode(codec.SchemeDelta, make([]float64, declared), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	task, err := dataset.NewTask(dataset.MNISTLike(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := task.Generate(rand.New(rand.NewSource(1)), 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDeviceServer(testArch, map[int]*dataset.Dataset{0: data}, sampling.DefaultMACHConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := deploy(t, 8, 2, 5, 1, codec.SchemeDelta)
	defer d.close()
	want := len(d.cloud.GlobalParams())
	receivers := map[string]func() error{
		"DeviceServer.SetBase": func() error {
			return srv.SetBase(SetBaseArgs{Edge: 0, ID: 1, Model: big}, &SetBaseReply{})
		},
		"Cloud edge reply": func() error {
			_, err := d.cloud.decodeEdgeModel(big)
			return err
		},
		"edge host sum / GetBase reply": func() error {
			_, err := decodeCount(big, nil, want)
			return err
		},
	}
	for name, call := range receivers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := call()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted a blob declaring %d params, want %d", name, declared, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8*declared/16 {
			t.Fatalf("%s allocated %d bytes rejecting a %d-byte declared vector", name, grew, 8*declared)
		}
	}
	if _, err := decodeCount(big, nil, declared); err != nil {
		t.Fatalf("blob with the expected count rejected: %v", err)
	}
}
