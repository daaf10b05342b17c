package fed

import (
	"fmt"
	"net/rpc"
	"sync"
	"sync/atomic"

	"github.com/mach-fl/mach/internal/codec"
	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/telemetry"
)

// CloudConfig parameterizes the coordinator.
type CloudConfig struct {
	// Steps is T, CloudInterval is T_g (Eq. 6).
	Steps         int
	CloudInterval int
	// Participation sets the per-edge capacity K_n =
	// Participation·|M|/|N|, as in the simulator.
	Participation float64
	// EvalEvery evaluates the global model every EvalEvery steps
	// (0 = every cloud round).
	EvalEvery int
	// Seed drives model initialization.
	Seed int64
	// Codec selects the wire format for every model transfer of the run
	// (DESIGN.md §6). The zero value, codec.SchemeDelta, is lossless and
	// reproduces codec.SchemeRaw's learning trajectory bit for bit while
	// moving far fewer bytes.
	Codec codec.Scheme
}

// Validate reports whether the config is usable.
func (c CloudConfig) Validate() error {
	switch {
	case c.Steps <= 0 || c.CloudInterval <= 0:
		return fmt.Errorf("fed: cloud steps/interval %d/%d must be positive", c.Steps, c.CloudInterval)
	case c.Participation <= 0 || c.Participation > 1:
		return fmt.Errorf("fed: participation %v outside (0,1]", c.Participation)
	case c.EvalEvery < 0:
		return fmt.Errorf("fed: eval interval %d negative", c.EvalEvery)
	}
	return c.Codec.Validate()
}

// Cloud is the coordinator: it owns the mobility plane, drives time steps
// across edge servers, aggregates edge models every T_g steps and
// redistributes the global model (Eq. 6).
type Cloud struct {
	cfg CloudConfig
	// src feeds the mobility plane as a per-step move stream (DESIGN.md
	// §12): a dense *mobility.Schedule via its adapter or a true streaming
	// source. The cloud keeps only the O(Devices) window below.
	src      mobility.StepSource
	nEdges   int
	nDevices int
	row      []int // device→edge attachments at step srcPos
	srcPos   int   // positioned step, -1 before the first advance
	// memberIndex materializes every edge's member set once per step,
	// repaired from the move stream between consecutive steps instead of
	// rescanning rows.
	memberIndex *mobility.MemberIndex
	test        *dataset.Dataset
	evalNet     *nn.Network
	global      []float64

	// prevView/prevID track the last global the cloud distributed, exactly
	// as the edges decoded it (for lossless schemes that is c.global
	// itself); the next distribution is encoded as a delta against it and
	// edge replies are decoded against it. efGlobal is the error-feedback
	// buffer for lossy global broadcasts.
	prevView []float64
	prevID   uint64
	lastID   uint64
	efGlobal []float64

	edges       []*rpc.Client
	deviceHosts []*rpc.Client

	// comm counts the bytes crossing the cloud's own connections, both
	// directions; transfers the model-bearing messages among them.
	comm      atomic.Int64
	transfers atomic.Int64

	// tel records step/eval timings, RPC fan-out and eval results; nil
	// disables it.
	tel *telemetry.Telemetry
}

// SetTelemetry attaches a telemetry sink (nil detaches). Call before Run.
func (c *Cloud) SetTelemetry(t *telemetry.Telemetry) { c.tel = t }

// NewCloud dials the edge servers and device hosts and initializes the
// global model from arch. Every connection counts its wire bytes into the
// cloud's communication counters (CommStats).
func NewCloud(cfg CloudConfig, arch hfl.ArchFunc, src mobility.StepSource, test *dataset.Dataset, edgeAddrs, deviceHostAddrs []string) (*Cloud, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("fed: cloud needs a valid schedule")
	}
	if s, ok := src.(*mobility.Schedule); ok && (s == nil || s.Validate() != nil) {
		return nil, fmt.Errorf("fed: cloud needs a valid schedule")
	}
	nEdges, nDevices, nSteps := src.Dims()
	if nEdges <= 0 || nDevices <= 0 || nSteps <= 0 {
		return nil, fmt.Errorf("fed: cloud needs a valid schedule")
	}
	if len(edgeAddrs) != nEdges {
		return nil, fmt.Errorf("fed: %d edge addresses for %d scheduled edges", len(edgeAddrs), nEdges)
	}
	if nSteps < cfg.Steps {
		return nil, fmt.Errorf("fed: schedule covers %d steps, config needs %d", nSteps, cfg.Steps)
	}
	if test == nil || test.Len() == 0 {
		return nil, fmt.Errorf("fed: cloud needs a test set")
	}
	rng := newRand(cfg.Seed)
	net0, err := arch(rng)
	if err != nil {
		return nil, fmt.Errorf("fed: build global model: %w", err)
	}
	c := &Cloud{
		cfg:         cfg,
		src:         src,
		nEdges:      nEdges,
		nDevices:    nDevices,
		row:         make([]int, nDevices),
		srcPos:      -1,
		memberIndex: mobility.NewMemberIndexWindow(0, nEdges),
		test:        test,
		evalNet:     net0,
		global:      net0.ParamVector(),
	}
	for _, addr := range edgeAddrs {
		cl, err := dialCounting(addr, &c.comm, &c.comm)
		if err != nil {
			return nil, fmt.Errorf("fed: cloud dial edge %s: %w", addr, err)
		}
		c.edges = append(c.edges, cl)
	}
	for _, addr := range deviceHostAddrs {
		cl, err := dialCounting(addr, &c.comm, &c.comm)
		if err != nil {
			return nil, fmt.Errorf("fed: cloud dial device host %s: %w", addr, err)
		}
		c.deviceHosts = append(c.deviceHosts, cl)
	}
	return c, nil
}

// Close drops all connections, reporting the first failure.
func (c *Cloud) Close() error {
	var firstErr error
	for _, cl := range c.edges {
		if err := cl.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, cl := range c.deviceHosts {
		if err := cl.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// GlobalParams returns a copy of the current global model parameters.
func (c *Cloud) GlobalParams() []float64 { return append([]float64(nil), c.global...) }

// CommStats collects the run's measured communication volume: the cloud's
// own connection counters plus each edge's device-facing counters. The
// cloud counters are snapshotted before the collection RPCs so the
// collection itself is not measured.
func (c *Cloud) CommStats() (hfl.CommStats, error) {
	stats := hfl.CommStats{
		CloudBytes:     c.comm.Load(),
		CloudTransfers: c.transfers.Load(),
		Measured:       true,
	}
	for n, cl := range c.edges {
		var rep CommReply
		if err := cl.Call("Edge.Comm", CommArgs{}, &rep); err != nil {
			return hfl.CommStats{}, fmt.Errorf("fed: comm stats from edge %d: %w", n, err)
		}
		stats.DeviceUplinkBytes += rep.UplinkBytes
		stats.DeviceDownlinkBytes += rep.DownlinkBytes
		stats.DeviceUploads += rep.Uploads
		stats.DeviceDownloads += rep.Downloads
	}
	return stats, nil
}

// Run drives the full training (Algorithm 1 over RPC) and returns the
// accuracy history.
func (c *Cloud) Run() (*metrics.History, error) {
	hist := &metrics.History{}
	capacity := c.cfg.Participation * float64(c.nDevices) / float64(c.nEdges)
	raw := c.cfg.Codec == codec.SchemeRaw
	resetParams := true // first step seeds every edge with the global model
	edgeParams := make([][]float64, c.nEdges)

	prevComm := c.comm.Load()
	for t := 0; t < c.cfg.Steps; t++ {
		stepStart := c.tel.Now()
		// stepSpan parents every span the cloud opens this step. It is a pure
		// hash of (kind, step), so it is computed unconditionally — on and off
		// runs execute the same code and put the same bytes on the wire.
		stepSpan := telemetry.DeriveSpanID(telemetry.SpanStep, t, -1, -1)
		cloudRound := (t+1)%c.cfg.CloudInterval == 0
		var blob codec.Blob
		var blobID uint64
		if resetParams && !raw {
			var err error
			blob, blobID, err = c.encodeGlobal()
			if err != nil {
				return nil, fmt.Errorf("fed: step %d encode global: %w", t, err)
			}
		}
		// The index's member slices stay valid until the next advance, which
		// happens strictly after wg.Wait — net/rpc encodes args inside each
		// goroutine — so they are safe to hand to the RPC layer uncopied.
		if err := c.advanceMobility(t); err != nil {
			return nil, fmt.Errorf("fed: step %d: %w", t, err)
		}
		var wg sync.WaitGroup
		errs := make([]error, c.nEdges)
		for n := range c.edges {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				args := EdgeStepArgs{
					Step:      t,
					Members:   c.memberIndex.Members(n),
					Capacity:  capacity,
					Scheme:    c.cfg.Codec,
					WantModel: cloudRound && !raw,
					Span:      SpanContext{Parent: uint64(telemetry.DeriveSpanID(telemetry.SpanRPCEdgeStep, t, n, -1))},
				}
				if resetParams {
					if raw {
						args.Params = c.global
					} else {
						args.Model = blob
						args.ModelID = blobID
						args.HasModel = true
					}
					c.transfers.Add(1)
				}
				var rep EdgeStepReply
				c.tel.Add(telemetry.CounterRPCCalls, 1)
				sp := c.tel.StartSpan(telemetry.SpanRPCEdgeStep, stepSpan, t, n, -1)
				err := c.edges[n].Call("Edge.Step", args, &rep)
				sp.End()
				if err != nil {
					errs[n] = err
					return
				}
				switch {
				case raw:
					edgeParams[n] = rep.Params
					c.transfers.Add(1)
				case rep.HasModel:
					params, err := c.decodeEdgeModel(rep.Model)
					if err != nil {
						errs[n] = err
						return
					}
					edgeParams[n] = params
					c.transfers.Add(1)
				}
			}(n)
		}
		wg.Wait()
		for n, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("fed: step %d edge %d: %w", t, n, err)
			}
		}
		resetParams = false

		if cloudRound {
			reduceSp := c.tel.StartSpan(telemetry.SpanCloudReduce, stepSpan, t, -1, -1)
			c.aggregate(t, edgeParams)
			reduceSp.End()
			resetParams = true
			for i, host := range c.deviceHosts {
				var rep CloudRoundReply
				c.tel.Add(telemetry.CounterRPCCalls, 1)
				crArgs := CloudRoundArgs{
					Step: t + 1,
					Span: SpanContext{Parent: uint64(telemetry.DeriveSpanID(telemetry.SpanRPCCloudRound, t, -1, i))},
				}
				sp := c.tel.StartSpan(telemetry.SpanRPCCloudRound, stepSpan, t, -1, i)
				err := host.Call("Device.CloudRound", crArgs, &rep)
				sp.End()
				if err != nil {
					return nil, fmt.Errorf("fed: cloud round on host %d: %w", i, err)
				}
			}
			c.tel.Add(telemetry.CounterCloudRounds, 1)
		}
		evalDue := cloudRound
		if c.cfg.EvalEvery > 0 {
			evalDue = (t+1)%c.cfg.EvalEvery == 0
		}
		if evalDue || t == c.cfg.Steps-1 {
			evalStart := c.tel.Now()
			if err := c.evalNet.SetParamVector(c.global); err != nil {
				return nil, err
			}
			x, y := c.test.All()
			acc, loss := c.evalNet.Evaluate(x, y)
			hist.Add(metrics.Point{Step: t + 1, Accuracy: acc, Loss: loss})
			evalEnd := c.tel.Now()
			c.tel.Observe(telemetry.HistEvalNS, evalEnd-evalStart)
			c.tel.RecordSpan(telemetry.SpanEval, stepSpan, t, -1, -1, evalStart, evalEnd)
			c.tel.Add(telemetry.CounterEvals, 1)
			c.tel.SetGauge(telemetry.GaugeAccuracy, acc)
			c.tel.SetGauge(telemetry.GaugeLoss, loss)
		}
		c.tel.Add(telemetry.CounterSteps, 1)
		stepEnd := c.tel.Now()
		c.tel.Observe(telemetry.HistStepNS, stepEnd-stepStart)
		c.tel.RecordSpan(telemetry.SpanStep, 0, t, -1, -1, stepStart, stepEnd)
		if comm := c.comm.Load(); comm != prevComm {
			c.tel.Add(telemetry.CounterCloudBytes, comm-prevComm)
			prevComm = comm
		}
	}
	return hist, nil
}

// encodeGlobal packs the current global model for distribution: a delta
// against the previously distributed global when there is one, baseline-free
// on the first distribution. It returns the blob and the new global's ID and
// records the receivers' view of it for the next round trip.
func (c *Cloud) encodeGlobal() (codec.Blob, uint64, error) {
	var baseline []float64
	var baseID uint64
	if len(c.prevView) == len(c.global) && c.prevID != 0 {
		baseline, baseID = c.prevView, c.prevID
	}
	var ef []float64
	if c.cfg.Codec == codec.SchemeInt8 {
		if len(c.efGlobal) != len(c.global) {
			c.efGlobal = make([]float64, len(c.global))
		}
		ef = c.efGlobal
	}
	blob, err := codec.Encode(c.cfg.Codec, c.global, baseline, baseID, ef)
	if err != nil {
		return codec.Blob{}, 0, err
	}
	// Record exactly what receivers will hold after decoding; under lossy
	// schemes that differs from c.global, and edge replies come back encoded
	// against it.
	view, err := codec.Decode(blob, baseline)
	if err != nil {
		return codec.Blob{}, 0, err
	}
	c.lastID++
	c.prevView, c.prevID = view, c.lastID
	return blob, c.lastID, nil
}

// decodeEdgeModel unpacks an edge's model reply, which is encoded against
// the last global the cloud distributed (or baseline-free before the first
// distribution reached that edge).
func (c *Cloud) decodeEdgeModel(blob codec.Blob) ([]float64, error) {
	var baseline []float64
	if blob.Baseline != 0 {
		if blob.Baseline != c.prevID {
			return nil, fmt.Errorf("fed: edge model against global %d, cloud last sent %d: %w",
				blob.Baseline, c.prevID, codec.ErrUnknownBaseline)
		}
		baseline = c.prevView
	}
	return decodeCount(blob, baseline, len(c.global))
}

// advanceMobility positions the cloud's mobility window at step t: it
// advances the source, maintains the attachment row, and repairs the member
// index from the move stream. Advancing to the current position is a no-op.
func (c *Cloud) advanceMobility(t int) error {
	if t == c.srcPos {
		return nil
	}
	moves, rebuilt, err := c.src.AdvanceTo(t)
	if err != nil {
		return fmt.Errorf("mobility source: %w", err)
	}
	if rebuilt || c.srcPos < 0 {
		c.row = c.src.Snapshot(c.row)
		rebuilt = true
	} else {
		mobility.ApplyMoves(c.row, moves)
	}
	c.memberIndex.AdvanceWith(t, c.row, moves, rebuilt)
	c.srcPos = t
	return nil
}

// aggregate merges edge models with the member-count weights of Eq. (6). Run
// has already positioned the member index at t by the time it aggregates.
func (c *Cloud) aggregate(t int, edgeParams [][]float64) {
	total := 0
	counts := make([]int, c.nEdges)
	for n := range counts {
		counts[n] = c.memberIndex.Count(n)
		total += counts[n]
	}
	next := make([]float64, len(c.global))
	for n, params := range edgeParams {
		if counts[n] == 0 || params == nil {
			continue
		}
		w := float64(counts[n]) / float64(total)
		for j, v := range params {
			next[j] += w * v
		}
	}
	c.global = next
}
