package fed

import (
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"sync"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
)

// DeviceServer hosts a set of logical mobile devices: their datasets, model
// replicas, optimizers and — per the paper's device-side design — their
// gradient experience buffers. One process typically hosts many devices
// (like one simulator machine emulating a fleet).
type DeviceServer struct {
	mu      sync.Mutex
	devices map[int]*hostedDevice
	book    *sampling.ExperienceBook
	arch    hfl.ArchFunc
	seed    int64
	// nParams is the hosted models' parameter count, the length of every
	// base an edge may install.
	nParams int

	// edgeBases caches, per edge, the base models installed by SetBase or
	// advanced in place by TrainMany (DESIGN.md §6). At most a couple of
	// vectors per edge are alive at any time: SetBase replaces the edge's
	// whole cache and TrainMany's advance drops the base it consumed.
	edgeBases map[int]map[uint64][]float64
	// efSum holds the per-edge error-feedback buffers for lossy update-sum
	// encodes (codec.SchemeInt8 streams).
	efSum map[int][]float64

	listener net.Listener
	server   *rpc.Server

	// tel counts served RPCs and training activity; nil disables it.
	tel *telemetry.Telemetry
}

// SetTelemetry attaches a telemetry sink (nil detaches). Call before Serve.
func (s *DeviceServer) SetTelemetry(t *telemetry.Telemetry) { s.tel = t }

type hostedDevice struct {
	data  *dataset.Dataset
	model *nn.Network
	opt   *nn.SGD
	rng   *rand.Rand
	dist  []float64
}

// NewDeviceServer creates a host for the given logical devices (deviceID →
// dataset). machCfg parameterizes the on-device UCB estimator.
func NewDeviceServer(arch hfl.ArchFunc, data map[int]*dataset.Dataset, machCfg sampling.MACHConfig, seed int64) (*DeviceServer, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("fed: device server needs at least one device")
	}
	maxID := 0
	for id, d := range data {
		if d == nil || d.Len() == 0 {
			return nil, fmt.Errorf("fed: device %d has no data", id)
		}
		if id > maxID {
			maxID = id
		}
	}
	ds := &DeviceServer{
		devices:   make(map[int]*hostedDevice, len(data)),
		book:      sampling.NewExperienceBook(maxID+1, machCfg.ExplorationCoef, machCfg.Discount),
		arch:      arch,
		seed:      seed,
		edgeBases: make(map[int]map[uint64][]float64),
		efSum:     make(map[int][]float64),
	}
	for id, d := range data {
		rng := rand.New(rand.NewSource(seed + int64(id)*311))
		model, err := arch(rng)
		if err != nil {
			return nil, fmt.Errorf("fed: build model for device %d: %w", id, err)
		}
		ds.nParams = model.NumParams()
		ds.devices[id] = &hostedDevice{
			data:  d,
			model: model,
			opt:   nn.NewSGD(0.01),
			rng:   rng,
			dist:  d.ClassDistribution(),
		}
	}
	return ds, nil
}

// Serve starts listening on addr ("host:0" for an ephemeral port) and
// serves RPCs until Close. It returns the bound address.
func (s *DeviceServer) Serve(addr string) (string, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Device", s); err != nil {
		return "", fmt.Errorf("fed: register device service: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("fed: device listen: %w", err)
	}
	s.listener = ln
	s.server = srv
	go acceptLoop(srv, ln)
	return ln.Addr().String(), nil
}

// Close stops the listener.
func (s *DeviceServer) Close() error {
	if s.listener == nil {
		return nil
	}
	return s.listener.Close()
}

func acceptLoop(srv *rpc.Server, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go srv.ServeConn(conn)
	}
}

// Ping implements the liveness RPC.
func (s *DeviceServer) Ping(_ PingArgs, reply *PingReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	reply.Role = "device-host"
	return nil
}

// Estimate returns the devices' current UCB gradient-norm estimates
// (Eq. 15). Unknown devices yield an error: the edge's membership view is
// stale.
func (s *DeviceServer) Estimate(args EstimateArgs, reply *EstimateReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleEstimate, telemetry.SpanID(args.Span.Parent), args.Step, -1, -1)
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	reply.Estimates = make([]float64, len(args.Devices))
	for i, id := range args.Devices {
		if _, ok := s.devices[id]; !ok {
			return fmt.Errorf("fed: device %d not hosted here", id)
		}
		reply.Estimates[i] = s.book.UCBEstimate(id, args.Step)
	}
	return nil
}

// ClassDist returns the devices' local label distributions.
func (s *DeviceServer) ClassDist(args ClassDistArgs, reply *ClassDistReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	reply.Distributions = make([][]float64, len(args.Devices))
	for i, id := range args.Devices {
		dev, ok := s.devices[id]
		if !ok {
			return fmt.Errorf("fed: device %d not hosted here", id)
		}
		reply.Distributions[i] = append([]float64(nil), dev.dist...)
	}
	return nil
}

// Train runs local updating (Eq. 4) on one device and records the training
// experience in the device-side buffer (Algorithm 2, line 1).
//
// Concurrent Train calls are safe for distinct devices (each owns its model
// and RNG); calls for the same device must be serialized by the caller,
// which the schedule's partition property (Eq. 1 — a device attaches to
// exactly one edge per step) guarantees in a correct deployment.
func (s *DeviceServer) Train(args TrainArgs, reply *TrainReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleTrain, telemetry.SpanID(args.Span.Parent), args.Step, -1, args.Device)
	defer sp.End()
	s.mu.Lock()
	dev, ok := s.devices[args.Device]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("fed: device %d not hosted here", args.Device)
	}
	sqNorms, err := s.trainOne(dev, args.Device, args.Params, args.Hyper)
	if err != nil {
		return err
	}
	reply.Params = dev.model.ParamVector()
	reply.SqNorms = sqNorms
	return nil
}

// trainOne runs local updating (Eq. 4) on one hosted device from the given
// base parameters and records the experience. The device's model holds the
// trained parameters afterwards.
func (s *DeviceServer) trainOne(dev *hostedDevice, id int, base []float64, hyper Hyper) ([]float64, error) {
	if hyper.LocalEpochs <= 0 || hyper.BatchSize <= 0 || hyper.LearningRate <= 0 {
		return nil, fmt.Errorf("fed: invalid hyperparameters %+v", hyper)
	}
	if err := dev.model.SetParamVector(base); err != nil {
		return nil, fmt.Errorf("fed: device %d: %w", id, err)
	}
	dev.opt.SetLearningRate(hyper.LearningRate)
	sqNorms := make([]float64, hyper.LocalEpochs)
	for tau := range sqNorms {
		x, y := dev.data.RandomBatch(dev.rng, hyper.BatchSize)
		_, gn := dev.model.TrainStep(x, y, dev.opt)
		sqNorms[tau] = gn
	}
	s.book.Observe(id, sqNorms)
	s.tel.Add(telemetry.CounterDevicesTrained, 1)
	return sqNorms, nil
}

// SetBase caches an edge's base model under a baseline ID (DESIGN.md §6).
// Installing a base replaces every earlier base of that edge, so the cache
// holds at most one vector per edge between steps.
func (s *DeviceServer) SetBase(args SetBaseArgs, reply *SetBaseReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleSetBase, telemetry.SpanID(args.Span.Parent), -1, args.Edge, -1)
	defer sp.End()
	params, err := decodeCount(args.Model, nil, s.nParams)
	if err != nil {
		return fmt.Errorf("fed: set base for edge %d: %w", args.Edge, err)
	}
	s.mu.Lock()
	s.edgeBases[args.Edge] = map[uint64][]float64{args.ID: params}
	s.mu.Unlock()
	*reply = SetBaseReply{}
	return nil
}

// GetBase returns the bits of a cached base model, always encoded lossless
// so the caller recovers exactly what the hosted devices train from.
func (s *DeviceServer) GetBase(args GetBaseArgs, reply *GetBaseReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleGetBase, telemetry.SpanID(args.Span.Parent), -1, args.Edge, -1)
	defer sp.End()
	base, err := s.lookupBase(args.Edge, args.ID)
	if err != nil {
		return err
	}
	blob, err := codec.Encode(codec.SchemeDelta, base, nil, 0, nil)
	if err != nil {
		return err
	}
	reply.Model = blob
	return nil
}

func (s *DeviceServer) lookupBase(edge int, id uint64) ([]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	base, ok := s.edgeBases[edge][id]
	if !ok {
		return nil, fmt.Errorf("fed: edge %d base %d not cached here: %w", edge, id, codec.ErrUnknownBaseline)
	}
	return base, nil
}

// TrainMany runs local updating on every listed device from the cached base
// named by BaseID and returns the summed update Σ(w_m − base), accumulated
// in args.Devices order so the edge's aggregation is order-identical to the
// raw path's. With args.Advance the host instead folds the sum into the
// next base itself (base + Σ/|Devices|), installs it under NextID and ships
// no vector at all. Devices train sequentially: they share the host's
// compute the way one simulator machine emulates a fleet, and cross-host
// parallelism comes from the edge's concurrent dispatch.
func (s *DeviceServer) TrainMany(args TrainManyArgs, reply *TrainManyReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleTrainMany, telemetry.SpanID(args.Span.Parent), args.Step, args.Edge, -1)
	defer sp.End()
	if err := args.Scheme.Validate(); err != nil {
		return err
	}
	if len(args.Devices) == 0 {
		return fmt.Errorf("fed: TrainMany with no devices")
	}
	base, err := s.lookupBase(args.Edge, args.BaseID)
	if err != nil {
		return err
	}
	sum := make([]float64, len(base))
	reply.SqNorms = make([][]float64, len(args.Devices))
	for i, id := range args.Devices {
		s.mu.Lock()
		dev, ok := s.devices[id]
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("fed: device %d not hosted here", id)
		}
		sqNorms, err := s.trainOne(dev, id, base, args.Hyper)
		if err != nil {
			return err
		}
		reply.SqNorms[i] = sqNorms
		trained := dev.model.ParamVector()
		for j, v := range trained {
			sum[j] += v - base[j]
		}
	}

	if args.Advance {
		inv := 1 / float64(len(args.Devices))
		next := make([]float64, len(base))
		for j := range next {
			next[j] = base[j] + inv*sum[j]
		}
		s.mu.Lock()
		bases := s.edgeBases[args.Edge]
		delete(bases, args.BaseID)
		bases[args.NextID] = next
		s.mu.Unlock()
		return nil
	}

	var ef []float64
	if args.Scheme == codec.SchemeInt8 {
		s.mu.Lock()
		ef = s.efSum[args.Edge]
		if len(ef) != len(sum) {
			ef = make([]float64, len(sum))
			s.efSum[args.Edge] = ef
		}
		s.mu.Unlock()
	}
	blob, err := codec.Encode(args.Scheme, sum, nil, 0, ef)
	if err != nil {
		return err
	}
	reply.Sum = blob
	reply.HasSum = true
	return nil
}

// CloudRound folds the hosted devices' experience buffers (Algorithm 2,
// lines 2-4).
func (s *DeviceServer) CloudRound(args CloudRoundArgs, reply *CloudRoundReply) error {
	s.tel.Add(telemetry.CounterRPCCalls, 1)
	sp := s.tel.StartSpan(telemetry.SpanHandleCloudRound, telemetry.SpanID(args.Span.Parent), args.Step, -1, -1)
	defer sp.End()
	s.book.CloudRound(args.Step)
	*reply = CloudRoundReply{}
	return nil
}
