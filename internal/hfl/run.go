package hfl

import (
	"fmt"
	"math/rand"

	"github.com/mach-fl/mach/internal/dataset"
	"github.com/mach-fl/mach/internal/metrics"
	"github.com/mach-fl/mach/internal/parallel"
	"github.com/mach-fl/mach/internal/telemetry"
	"github.com/mach-fl/mach/internal/tensor"
)

// Result summarizes one training run.
type Result struct {
	// History holds the global-model evaluations.
	History *metrics.History
	// StepsRun is how many time steps executed (smaller than Config.Steps
	// when an accuracy target stopped the run early).
	StepsRun int
	// TotalSampled counts device participations over the whole run.
	TotalSampled int
	// SampledPerStep records how many devices trained at each step.
	SampledPerStep []int
	// ReachedTarget reports whether the early-stop accuracy target was hit,
	// and TargetStep the step at which it happened.
	ReachedTarget bool
	TargetStep    int
	// Comm tallies the communication volume of the run.
	Comm CommStats
}

// CommStats counts the model transfers of a run. The simulator fills it
// analytically, valued at 8 bytes per parameter (float64): device downlink
// counts one edge-model download per sampled device per step (Eq. 4's w^t_n
// distribution); device uplink one local-model upload per successful
// participation (Eq. 5); cloud volume one edge-model exchange per edge per
// cloud round, both directions (Eq. 6). The distributed stack
// (internal/fed) instead measures real wire bytes under net/rpc and sets
// Measured.
type CommStats struct {
	DeviceUplinkBytes   int64
	DeviceDownlinkBytes int64
	CloudBytes          int64
	// DeviceUploads/DeviceDownloads/CloudTransfers count the model-bearing
	// messages behind the byte totals.
	DeviceUploads   int64
	DeviceDownloads int64
	CloudTransfers  int64
	// Measured reports that the byte counts were read off real connections
	// rather than computed analytically.
	Measured bool
}

// Total returns the run's total transferred bytes.
func (c CommStats) Total() int64 {
	return c.DeviceUplinkBytes + c.DeviceDownlinkBytes + c.CloudBytes
}

// RunOption customizes a call to Run.
type RunOption func(*runOptions)

type runOptions struct {
	target float64
	hasTgt bool
	stepFn func(step, sampled int)
	evalFn func(step int, accuracy, loss float64)
}

// WithTarget stops the run at the first evaluation whose accuracy reaches
// target, the evaluation's time-to-accuracy protocol.
func WithTarget(target float64) RunOption {
	return func(o *runOptions) { o.target, o.hasTgt = target, true }
}

// WithStepHook invokes fn after every time step with the number of devices
// that trained.
func WithStepHook(fn func(step, sampled int)) RunOption {
	return func(o *runOptions) { o.stepFn = fn }
}

// WithEvalHook invokes fn after every global-model evaluation.
func WithEvalHook(fn func(step int, accuracy, loss float64)) RunOption {
	return func(o *runOptions) { o.evalFn = fn }
}

// localResult is one sampled device's contribution to edge aggregation.
type localResult struct {
	params []float64
	weight float64 // 1/(|M_n|·q) for unbiased strategies, 1 for biased
	size   int     // |D_m|: plain aggregation weights by dataset size
}

// plannedDevice is one sampled device's decision-phase outcome, later filled
// in with its execution-phase result. The slot's params and sqNorms buffers
// outlive the step: the edge's next decide reuses the slot with them.
type plannedDevice struct {
	m       int       // device id
	weight  float64   // 1/(|M_n|·q) for unbiased strategies, 1 for biased
	upload  bool      // false when the upload-failure coin dropped the result
	params  []float64 // trained parameters, written only when upload is set
	sqNorms []float64 // gradient-norm window of the I local steps
	err     error
}

// edgePlan is one edge's decision-phase output for the current step.
type edgePlan struct {
	devs []plannedDevice
}

// Run executes Algorithm 1 and returns the training history.
//
// Every time step runs in three phases: a *decision* phase draws all of the
// step's randomness (strategy probabilities, sampling coins, upload-failure
// coins) from the per-edge RNG streams in member order — edges decide in
// parallel on the pool, which is safe because each edge's stream, context
// and plan are private to it and every draw within an edge stays serial; a
// parallel *execution* phase dispatches the sampled devices' local SGD to a
// bounded worker pool shared across edges; a sequential *finalize* phase
// observes experiences and aggregates uploads back in member order. Because
// no random decision depends on execution timing and every reduction is
// order-fixed, the result is bit-identical for every Config.Workers value.
func (e *Engine) Run(opts ...RunOption) (*Result, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	res := &Result{History: &metrics.History{}}

	e.pool = parallel.NewPool(e.cfg.workers())
	e.startActors()
	defer func() {
		e.stopActors()
		e.pool.Close()
		e.pool = nil
	}()
	if e.tel != nil {
		e.tel.SetShardCount(len(e.shards))
	}

	tr := e.tel.Trace()
	tr.Emit(&telemetry.Event{Type: telemetry.EventRun, Run: &telemetry.RunEvent{
		Strategy: e.strategy.Name(),
		Seed:     e.cfg.Seed,
		Devices:  e.nDevices,
		Edges:    e.nEdges,
		Steps:    e.cfg.Steps,
		Capacity: e.capacity,
		Every:    tr.Config().Every,
		MaxEdges: tr.Config().MaxEdges,
	}})
	lastAcc := 0.0
	emitDone := func() {
		tr.Emit(&telemetry.Event{Type: telemetry.EventDone, Step: res.StepsRun, Done: &telemetry.DoneEvent{
			StepsRun: res.StepsRun, TotalSampled: res.TotalSampled, FinalAccuracy: lastAcc,
		}})
	}

	modelBytes := int64(len(e.global)) * 8
	for t := 0; t < e.cfg.Steps; t++ {
		// Submit the step to every shard actor: each runs decide → execute →
		// finalize for its own edge range (decide and finalize serially, in
		// edge order, on its goroutine; device training on the shared pool)
		// and the barrier inside submitAll is the collect point. No RNG
		// stream, experience write or model reduction crosses a shard
		// boundary mid-step, so the cross-shard interleaving cannot reach a
		// value (DESIGN.md §11).
		stepStart := e.tel.Now()
		// stepSpan parents the step's phase spans. Deriving it is a pure hash
		// (no clock, no allocation), so it runs unconditionally and the span
		// machinery costs nothing until EnableSpans turns recording on.
		stepSpan := telemetry.DeriveSpanID(telemetry.SpanStep, t, -1, -1)
		// One mobility advance per step, on the engine goroutine: the shards
		// then repair their member indexes from the bucketed move stream
		// (read-only to them) inside the step command.
		if err := e.advanceMobility(t); err != nil {
			return nil, fmt.Errorf("hfl: step %d: %w", t, err)
		}
		e.submitAll(shardCmd{op: opStep, t: t})
		if err := e.collectStep(t); err != nil {
			return nil, err
		}

		// Serial accounting pass in edge order: communication and sampling
		// telemetry, plus the edge-ordered emission of decision events.
		var stepTel stepTelemetry
		stepSampled := 0
		for _, s := range e.shards {
			for n := s.lo; n < s.hi; n++ {
				counts := s.counts[n-s.lo]
				stepSampled += counts.uploaded
				res.Comm.DeviceDownlinkBytes += int64(counts.trained) * modelBytes
				res.Comm.DeviceUplinkBytes += int64(counts.uploaded) * modelBytes
				res.Comm.DeviceDownloads += int64(counts.trained)
				res.Comm.DeviceUploads += int64(counts.uploaded)
				if e.tel != nil {
					e.tel.Add(telemetry.CounterDevicesTrained, int64(counts.trained))
					e.tel.Add(telemetry.CounterDevicesUploaded, int64(counts.uploaded))
					e.tel.Add(telemetry.CounterUploadsDropped, int64(counts.trained-counts.uploaded))
					e.tel.Add(telemetry.CounterDeviceDownlinkBytes, int64(counts.trained)*modelBytes)
					e.tel.Add(telemetry.CounterDeviceUplinkBytes, int64(counts.uploaded)*modelBytes)
					e.observeEdge(t, n, counts, &stepTel)
				}
			}
		}
		if e.tel != nil {
			e.flushStepTelemetry(&stepTel)
		}
		res.SampledPerStep = append(res.SampledPerStep, stepSampled)
		res.TotalSampled += stepSampled
		res.StepsRun = t + 1
		if o.stepFn != nil {
			o.stepFn(t, stepSampled)
		}

		cloudRound := (t+1)%e.cfg.CloudInterval == 0
		if cloudRound {
			reduceSp := e.tel.StartSpan(telemetry.SpanCloudReduce, stepSpan, t, -1, -1)
			e.cloudAggregate(t)
			reduceSp.End()
			// Every edge uploads its model and downloads the new global.
			res.Comm.CloudBytes += 2 * int64(e.nEdges) * modelBytes
			res.Comm.CloudTransfers += 2 * int64(e.nEdges)
			if e.observer != nil {
				e.observer.CloudRound(t + 1)
			}
			if e.cfg.LRDecay < 1 {
				e.lr *= e.cfg.LRDecay
			}
			if e.tel != nil {
				e.tel.Add(telemetry.CounterCloudRounds, 1)
				e.tel.Add(telemetry.CounterCloudBytes, 2*int64(e.nEdges)*modelBytes)
				if e.inspector != nil {
					s := e.inspector.EstimatorStats()
					e.tel.SetGauge(telemetry.GaugeNeverPulled, float64(s.NeverPulled))
					e.tel.SetGauge(telemetry.GaugeMaxPulls, float64(s.MaxPulls))
					tr.Emit(&telemetry.Event{Type: telemetry.EventEstimator, Step: t + 1, Estimator: &telemetry.EstimatorEvent{
						Devices: s.Devices, NeverPulled: s.NeverPulled, TotalPulls: s.TotalPulls, MaxPulls: s.MaxPulls,
					}})
				}
			}
		}
		evalDue := cloudRound
		if e.cfg.EvalEvery > 0 {
			evalDue = (t+1)%e.cfg.EvalEvery == 0
		}
		if evalDue || t == e.cfg.Steps-1 {
			evalStart := e.tel.Now()
			acc, loss, err := e.evaluate(t)
			if err != nil {
				return nil, fmt.Errorf("hfl: step %d: %w", t, err)
			}
			e.observePhase(t, telemetry.HistEvalNS, "eval", telemetry.SpanEval, evalStart)
			lastAcc = acc
			if e.tel != nil {
				e.tel.Add(telemetry.CounterEvals, 1)
				e.tel.SetGauge(telemetry.GaugeAccuracy, acc)
				e.tel.SetGauge(telemetry.GaugeLoss, loss)
				tr.Emit(&telemetry.Event{Type: telemetry.EventEval, Step: t + 1, Eval: &telemetry.EvalEvent{Accuracy: acc, Loss: loss}})
			}
			res.History.Add(metrics.Point{Step: t + 1, Accuracy: acc, Loss: loss})
			if o.evalFn != nil {
				o.evalFn(t+1, acc, loss)
			}
			if o.hasTgt && acc >= o.target {
				res.ReachedTarget = true
				res.TargetStep = t + 1
				emitDone()
				return res, nil
			}
		}
		e.tel.Add(telemetry.CounterSteps, 1)
		stepEnd := e.tel.Now()
		e.tel.Observe(telemetry.HistStepNS, stepEnd-stepStart)
		e.tel.RecordSpan(telemetry.SpanStep, 0, t, -1, -1, stepStart, stepEnd)
	}
	emitDone()
	return res, nil
}

// observePhase records one phase's duration in its histogram, as a span of
// the given kind under the step span, and — when the trace records this
// step — as a phase event. With no telemetry attached it does nothing (and,
// via the nil clock, reads no time at all).
func (e *Engine) observePhase(t int, h telemetry.Hist, name string, kind telemetry.SpanKind, start int64) {
	if e.tel == nil {
		return
	}
	end := e.tel.Now()
	ns := end - start
	e.tel.Observe(h, ns)
	e.tel.RecordSpan(kind, telemetry.DeriveSpanID(telemetry.SpanStep, t, -1, -1), t, -1, -1, start, end)
	if tr := e.tel.Trace(); tr.StepActive(t) {
		tr.Emit(&telemetry.Event{Type: telemetry.EventPhase, Step: t, Phase: &telemetry.PhaseEvent{Name: name, NS: ns}})
	}
}

// stepTelemetry accumulates one step's cross-edge sampling observations,
// folded serially during the finalize loop and flushed once per step.
type stepTelemetry struct {
	ucbMin, ucbMax, ucbSum float64
	ucbCount               int
	probMass               float64
	floorClamps            int64
	ceilClamps             int64
}

// observeEdge folds one edge's decision into the step accumulator and, when
// the trace records this decision, emits the complete decision event. It
// runs on the sequential finalize path in edge order, which is what makes
// trace output deterministic; the decide-phase buffers it reads (probs,
// scratch estimates, coins) stay valid until the edge's next decide.
func (e *Engine) observeEdge(t, n int, counts edgeStepCounts, acc *stepTelemetry) {
	members := e.edgeMembers(n)
	e.tel.Observe(telemetry.HistEdgeMembers, int64(len(members)))
	e.tel.Observe(telemetry.HistEdgeSampled, int64(counts.trained))
	if len(members) == 0 {
		return // edgeDecide returned early; decide-state buffers are stale
	}
	st := &e.decide[n]
	if len(st.probs) < len(members) {
		return
	}
	probs := st.probs[:len(members)]
	for _, q := range probs {
		acc.probMass += q
		if e.hasProbFloor && q <= e.probFloor {
			acc.floorClamps++
		}
		if q >= 1 {
			acc.ceilClamps++
		}
	}
	estimates := st.ctx.Scratch
	if !e.estInScratch || len(estimates) < len(members) {
		estimates = nil
	} else {
		estimates = estimates[:len(members)]
	}
	for _, g := range estimates {
		if acc.ucbCount == 0 || g < acc.ucbMin {
			acc.ucbMin = g
		}
		if acc.ucbCount == 0 || g > acc.ucbMax {
			acc.ucbMax = g
		}
		acc.ucbSum += g
		acc.ucbCount++
	}
	tr := e.tel.Trace()
	if !tr.DecisionActive(t, n) {
		return
	}
	// Emit encodes synchronously, so handing it the engine's live buffers is
	// safe: they are not touched again until the next decide phase.
	tr.Emit(&telemetry.Event{Type: telemetry.EventDecision, Step: t, Decision: &telemetry.DecisionEvent{
		Edge:      n,
		Members:   members,
		Estimates: estimates,
		Probs:     probs,
		Coins:     st.coins,
		Sampled:   st.sampledIDs,
		Dropped:   st.droppedIDs,
	}})
}

// flushStepTelemetry publishes the step accumulator's gauges and counters.
func (e *Engine) flushStepTelemetry(acc *stepTelemetry) {
	e.tel.Add(telemetry.CounterProbFloorClamps, acc.floorClamps)
	e.tel.Add(telemetry.CounterProbCeilClamps, acc.ceilClamps)
	e.tel.SetGauge(telemetry.GaugeProbMass, acc.probMass)
	if acc.ucbCount > 0 {
		e.tel.SetGauge(telemetry.GaugeUCBMin, acc.ucbMin)
		e.tel.SetGauge(telemetry.GaugeUCBMean, acc.ucbSum/float64(acc.ucbCount))
		e.tel.SetGauge(telemetry.GaugeUCBMax, acc.ucbMax)
	}
}

// edgeStepCounts reports one edge's activity in one step: how many devices
// trained (downloaded the edge model and ran local SGD) and how many of
// those successfully uploaded.
type edgeStepCounts struct {
	trained  int
	uploaded int
}

// edgeDecide performs the sampling decisions for one edge at one time step
// (Algorithm 1, lines 3-5) and records them in e.plans[n]. It draws from the
// edge's deterministic RNG stream in member order: strategy probabilities
// first, then per member one sampling coin and — for sampled devices under a
// positive failure probability — one upload-failure coin. Local updates never
// touch this stream, so pulling the failure coin forward from the serial
// post-training position leaves every draw at the same stream offset.
//
// All per-step machinery is pooled in e.decide[n]: the RNG is reseeded to
// the same mix(seed, t, n) stream a fresh rand.New would start (Seed resets
// the source to exactly the NewSource state), the context and its closures
// are built once per edge, and probabilities land in a reused buffer when
// the strategy implements the in-place fast path. Distinct edges may decide
// concurrently; everything mutated here is private to edge n.
//
//machlint:allocfree
func (e *Engine) edgeDecide(t, n int) error {
	plan := &e.plans[n]
	plan.devs = plan.devs[:0]
	members := e.edgeMembers(n)
	if len(members) == 0 {
		return nil
	}
	st := &e.decide[n]
	seed := mix(e.cfg.Seed, int64(t)+1, int64(n)+101)
	if st.rng == nil {
		st.rng = rand.New(rand.NewSource(seed))
		st.ctx.Edge = n
		st.ctx.Capacity = e.capacity
		st.ctx.RNG = st.rng
		st.ctx.ClassDist = func(m int) []float64 {
			return e.devices[m].dist
		}
		st.ctx.ProbeGradNorm = func(m int) float64 {
			return e.probeGradNorm(st.ctx.Step, n, m)
		}
	} else {
		st.rng.Seed(seed)
	}
	st.ctx.Step = t
	st.ctx.Members = members
	var probs []float64
	if e.inplace != nil {
		st.probs = e.inplace.ProbabilitiesInto(&st.ctx, st.probs)
		probs = st.probs
	} else {
		probs = e.strategy.Probabilities(&st.ctx)
		st.probs = probs // finalize-phase telemetry reads the step's vector
	}
	if len(probs) != len(members) {
		return fmt.Errorf("strategy %q returned %d probabilities for %d members", e.strategy.Name(), len(probs), len(members))
	}
	// DecisionActive is a pure function of (step, edge), so this agrees with
	// the finalize phase's emission gate without any shared state.
	tracing := e.tel.Trace().DecisionActive(t, n)
	if tracing {
		st.coins = st.coins[:0]
		st.sampledIDs = st.sampledIDs[:0]
		st.droppedIDs = st.droppedIDs[:0]
	}
	unbiased := e.strategy.Unbiased()
	for i, m := range members {
		q := probs[i]
		coin := st.rng.Float64()
		if tracing {
			st.coins = append(st.coins, coin)
		}
		if coin >= q {
			continue // not sampled: 1^t_{m,n} = 0
		}
		if unbiased && q <= 0 {
			return fmt.Errorf("strategy %q sampled device %d with probability %v", e.strategy.Name(), m, q)
		}
		upload := true
		if e.cfg.UploadFailureProb > 0 && st.rng.Float64() < e.cfg.UploadFailureProb {
			upload = false // device moved away before uploading (see Config)
		}
		if tracing {
			st.sampledIDs = append(st.sampledIDs, m)
			if !upload {
				st.droppedIDs = append(st.droppedIDs, m)
			}
		}
		weight := 1.0
		if unbiased {
			weight = 1 / (float64(len(members)) * q) // Eq. (5)
		}
		// Extend the plan by one slot, keeping the buffers it held last step.
		k := len(plan.devs)
		if k < cap(plan.devs) {
			plan.devs = plan.devs[:k+1]
		} else {
			plan.devs = append(plan.devs, plannedDevice{})
		}
		pd := &plan.devs[k]
		pd.m, pd.weight, pd.upload, pd.err = m, weight, upload, nil
	}
	return nil
}

// edgeFinalize walks one edge's executed plan in member order: it surfaces
// local-update errors, buffers training experience into the owning shard
// (merged into the strategy's observer at the step's collect point, in edge
// order), collects the surviving uploads and merges them into the edge model
// (Algorithm 1, lines 6-11). The buffered sqNorms slices and the uploaded
// params are the plan slots' buffers, valid until the edge's next execution
// phase — which is after the merge.
func (e *Engine) edgeFinalize(t, n int, s *shardState) (edgeStepCounts, error) {
	var counts edgeStepCounts
	plan := &e.plans[n]
	results := s.aggResults[:0]
	for i := range plan.devs {
		pd := &plan.devs[i]
		if pd.err != nil {
			return counts, fmt.Errorf("device %d: %w", pd.m, pd.err)
		}
		counts.trained++
		if e.observer != nil {
			s.obsEdges = append(s.obsEdges, n)
			s.obsDevs = append(s.obsDevs, pd.m)
			s.obsNorms = append(s.obsNorms, pd.sqNorms)
		}
		if !pd.upload {
			continue
		}
		results = append(results, localResult{params: pd.params, weight: pd.weight, size: e.devices[pd.m].data.Len()})
	}
	e.aggregateEdge(n, results, e.strategy.Unbiased())
	counts.uploaded = len(results)
	s.aggResults = results[:0] // keep the grown capacity for the shard's next edge
	return counts, nil
}

// aggregateEdge merges sampled local models into the edge model. For
// unbiased strategies the inverse-probability weights of Eq. (5) are applied
// to the model updates (or, with AggLiteralEq5, to the models themselves); for
// biased active-selection strategies a plain average over participants is
// used. The edge keeps a double buffer: the outgoing model becomes the next
// aggregation's scratch, so steady-state aggregation does not allocate.
//
//machlint:allocfree
func (e *Engine) aggregateEdge(n int, results []localResult, unbiased bool) {
	if len(results) == 0 {
		return // no participants: edge model carries over
	}
	cur := e.edge[n]
	next := e.aggNext[n]
	if len(next) != len(cur) {
		next = make([]float64, len(cur))
	}
	mode := e.cfg.aggregation()
	if !unbiased {
		mode = AggPlain // active selection always plain-averages
	}
	switch mode {
	case AggPlain:
		// FedAvg over participants, weighted by local dataset size |D_m|
		// (equal sizes reduce to a plain mean, the paper's simplification).
		total := 0
		for _, r := range results {
			total += r.size
		}
		for j := range next {
			next[j] = 0
		}
		for _, r := range results {
			// total == 0 can only mean every participant reported an empty
			// dataset; fall back to a plain mean instead of dividing by 0.
			w := 1.0 / float64(len(results))
			if total > 0 {
				w = float64(r.size) / float64(total)
			}
			for j, v := range r.params {
				next[j] += w * v
			}
		}
	case AggLiteralEq5:
		for j := range next {
			next[j] = 0
		}
		for _, r := range results {
			for j, v := range r.params {
				next[j] += r.weight * v
			}
		}
	default: // AggInverseUpdate: w_n ← w_n + Σ weight·(w_m − w_n)
		copy(next, cur)
		for _, r := range results {
			for j, v := range r.params {
				next[j] += r.weight * (v - cur[j])
			}
		}
	}
	e.edge[n], e.aggNext[n] = next, cur
}

// cloudAggregate merges edge models into the global model with the
// member-count weights of Eq. (6) as a two-tier reduce — every shard folds
// its cloud-reduce groups' partial sums in edge order, then the engine folds
// the group partials in group order — and redistributes the result to every
// edge. The grouping is a pure function of the edge count (cloudGroups),
// never of the shard count, so the summation order — and therefore every
// bit of the global model — is identical for every Config.Shards value.
// Like edge aggregation it double-buffers the global vector, so cloud
// rounds stop allocating after the first.
func (e *Engine) cloudAggregate(t int) {
	// Within Run the mobility window and every shard index are already
	// positioned at t (the step protocol advanced them), so this degenerates
	// to no-ops; direct callers (tests) get the same counts on demand.
	e.positionMobility(t)
	total := 0
	for _, s := range e.shards {
		for n := s.lo; n < s.hi; n++ {
			e.cloudCounts[n] = s.index.Count(n)
			total += e.cloudCounts[n]
		}
	}
	for g := 0; g < e.groups; g++ {
		sum := 0
		for n := rangeLo(e.nEdges, e.groups, g); n < rangeLo(e.nEdges, e.groups, g+1); n++ {
			sum += e.cloudCounts[n]
		}
		e.groupCounts[g] = sum
	}
	if e.actorsUp {
		e.submitAll(shardCmd{op: opCloudPartial, total: float64(total)})
		e.surfaceShardPanics()
	} else {
		for _, s := range e.shards {
			s.cloudPartials(float64(total))
		}
	}
	next := e.cloudNext
	if len(next) != len(e.global) {
		next = make([]float64, len(e.global))
	} else {
		for j := range next {
			next[j] = 0
		}
	}
	for _, s := range e.shards {
		for g := s.gLo; g < s.gHi; g++ {
			// A group whose edges all have zero members contributed exactly
			// zero weight; skipping it mirrors the per-edge zero-weight skip
			// inside the shard fold.
			if e.groupCounts[g] == 0 {
				continue
			}
			for j, v := range s.partials[g-s.gLo] {
				next[j] += v
			}
		}
	}
	e.global, e.cloudNext = next, e.global
	if e.actorsUp {
		e.submitAll(shardCmd{op: opInstallGlobal})
		e.surfaceShardPanics()
	} else {
		for _, s := range e.shards {
			s.installGlobal()
		}
	}
}

// probeGradNorm measures the true squared stochastic-gradient norm of device
// m under edge n's current model, without updating any state (used by
// MACH-P). It runs on the probe scratch of the shard that owns edge n: a
// shard decides its edges serially, so the scratch needs no lock, and the
// value is deterministic regardless of how shards interleave — the probed
// model, batch and optimizer depend only on (seed, t, n, m), and a device is
// attached to exactly one edge per step. The scratch RNG is reseeded to the
// stream a fresh rand.New(rand.NewSource(mix(seed, t+7, m+301))) would
// start, as edgeDecide does for its coins.
//
//machlint:allocfree
func (e *Engine) probeGradNorm(t, n, m int) float64 {
	e.tel.Add(telemetry.CounterProbes, 1)
	p := e.shards[e.edgeShard[n]].probeScratch()
	if err := p.net.SetParamVector(e.edge[n]); err != nil {
		// The strategy callback has no error channel, and a length mismatch
		// here means the engine's networks are wired wrong — fail loudly
		// instead of silently scoring the device as zero.
		panic(fmt.Sprintf("hfl: probe gradient of device %d (step %d, edge %d): %v", m, t, n, err))
	}
	p.rng.Seed(mix(e.cfg.Seed, int64(t)+7, int64(m)+301))
	e.devices[m].data.RandomBatchInto(p.rng, p.x, p.y, p.idx)
	_, gn := p.net.TrainStep(p.x, p.y, p.opt)
	return gn
}

// EvaluateConfusion classifies the full test set with the current global
// model and returns the confusion matrix, exposing the per-class (macro)
// view of the evaluation.
func (e *Engine) EvaluateConfusion() (*metrics.Confusion, error) {
	n := e.test.Len()
	idx := make([]int, n)
	preds := make([]int, n)
	labels := make([]int, n)
	for i := range idx {
		idx[i] = i
		labels[i] = e.test.Label(i)
	}
	if _, _, err := e.evalSums(idx, preds); err != nil {
		return nil, fmt.Errorf("hfl: evaluate confusion: %w", err)
	}
	return metrics.NewConfusion(e.test.Classes, preds, labels)
}

// evaluate computes the global model's accuracy and loss on the test set
// (optionally a deterministic subsample of EvalBatch samples).
func (e *Engine) evaluate(t int) (acc, loss float64, err error) {
	if e.cfg.EvalBatch > 0 && e.cfg.EvalBatch < e.test.Len() {
		rng := rand.New(rand.NewSource(mix(e.cfg.Seed, 0xE7A1, int64(t))))
		e.evalIdx = resizeInts(e.evalIdx, e.cfg.EvalBatch)
		for i := range e.evalIdx {
			e.evalIdx[i] = rng.Intn(e.test.Len())
		}
	} else {
		e.evalIdx = resizeInts(e.evalIdx, e.test.Len())
		for i := range e.evalIdx {
			e.evalIdx[i] = i
		}
	}
	correct, lossSum, err := e.evalSums(e.evalIdx, nil)
	if err != nil {
		return 0, 0, err
	}
	total := float64(len(e.evalIdx))
	return float64(correct) / total, lossSum * (1 / total), nil
}

// evalSums loads the global model into per-shard evaluation networks and
// scores the test samples at the given indices. The index list splits into
// cfg.evalShards() contiguous shards — a fixed count independent of the core
// count — whose (correct, lossSum) pairs are reduced in shard order, so the
// result is the same on every machine and for every worker count. Sharding
// also bounds the per-forward im2col footprint to a shard's batch instead of
// the whole test set. When preds is non-nil the shards instead record each
// sample's predicted class at its position in the index list (losses are
// skipped).
func (e *Engine) evalSums(indices []int, preds []int) (correct int, lossSum float64, err error) {
	shards := e.cfg.evalShards()
	if shards > len(indices) {
		shards = len(indices)
	}
	for len(e.evalShard) < shards {
		e.evalShard = append(e.evalShard, evalShardState{net: e.evalNet.Clone()})
	}
	for s := 0; s < shards; s++ {
		if err := e.evalShard[s].net.SetParamVector(e.global); err != nil {
			return 0, 0, fmt.Errorf("load global model into evaluation shard %d: %w", s, err)
		}
	}
	type sums struct {
		correct int
		lossSum float64
	}
	out := make([]sums, shards)
	runShard := func(s int) {
		start, end := len(indices)*s/shards, len(indices)*(s+1)/shards
		st := &e.evalShard[s]
		st.x = ensureBatch(st.x, end-start, e.test)
		st.y = resizeInts(st.y, end-start)
		e.test.BatchInto(st.x, st.y, indices[start:end])
		if preds == nil {
			out[s].correct, out[s].lossSum = st.net.EvaluateSums(st.x, st.y)
			return
		}
		logits := st.net.Forward(st.x, false)
		classes := logits.Dim(1)
		ld := logits.Data()
		for i := 0; i < end-start; i++ {
			row := ld[i*classes : (i+1)*classes]
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			preds[start+i] = best
		}
	}
	if e.pool != nil {
		g := e.pool.Group()
		for s := 0; s < shards; s++ {
			g.Go(func() { runShard(s) })
		}
		g.Wait()
	} else {
		parallel.ForEach(e.cfg.workers(), shards, runShard)
	}
	for _, o := range out {
		correct += o.correct
		lossSum += o.lossSum
	}
	return correct, lossSum, nil
}

// ensureBatch returns a [b, InC, InH, InW] batch tensor for dataset d,
// reusing t when its batch dimension already matches.
func ensureBatch(t *tensor.Tensor, b int, d *dataset.Dataset) *tensor.Tensor {
	if t != nil && t.Dim(0) == b {
		return t
	}
	return tensor.New(b, d.InC, d.InH, d.InW)
}

// resizeInts returns s resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified; callers overwrite.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
