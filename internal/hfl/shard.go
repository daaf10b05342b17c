package hfl

import (
	"fmt"
	"math/rand"

	"github.com/mach-fl/mach/internal/mobility"
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/telemetry"
	"github.com/mach-fl/mach/internal/tensor"
)

// This file holds the sharded control plane (DESIGN.md §11): the engine's
// per-step work is partitioned into shard actors, each owning a contiguous
// range of edges plus that range's member index, decide/aggregation scratch
// and experience-observation buffer. Shards run decide → execute → finalize
// for their edges on their own goroutine and talk to the engine only through
// per-step submit/collect points, so a step's cross-shard interleaving can
// never reach a value: every RNG stream is per-edge and placement-
// independent, the experience book is frozen for the step (observations are
// buffered per shard and merged in edge order at the collect point), and
// every reduction the engine performs folds shard outputs in a fixed order.
//
// The cloud round is a two-tier reduce over a *fixed* grouping: edges fold
// into cloudGroups(E) canonical groups — a pure function of the edge count,
// never of the shard count — and the engine folds group partials in group
// order. With E ≤ cloudReduceGroups every group holds exactly one edge, so
// the grouped fold reproduces the monolithic engine's edge-order fold bit
// for bit; for any E the grouping is shard-count-invariant, so sharded(N)
// runs are bit-identical to Shards: 1 for every N.

// cloudReduceGroups caps the number of accumulation groups of the two-tier
// cloud reduce. It is a machine-independent constant (like
// defaultEvalShards): the grouping determines the floating-point summation
// order of Eq. (6), so it must be a pure function of the edge count — any
// dependence on shard or core count would break run reproducibility.
const cloudReduceGroups = 64

// cloudGroups returns the canonical group count for an edge count: one group
// per edge up to cloudReduceGroups, then a fixed fan-in so the engine-side
// serial fold stays O(cloudReduceGroups · |w|) no matter how many edges
// exist.
func cloudGroups(edges int) int {
	if edges < cloudReduceGroups {
		return edges
	}
	return cloudReduceGroups
}

// rangeLo returns the first index of part i when n items split into parts
// contiguous ranges whose sizes differ by at most one: part i covers
// [n·i/parts, n·(i+1)/parts). It partitions edges into cloud-reduce groups
// and a shard's sampled devices into execution chunks.
func rangeLo(n, parts, i int) int { return n * i / parts }

// shardOp selects what a shardCmd asks the shard to do.
type shardOp int

const (
	// opStep runs decide → execute → finalize for the shard's edges at
	// step t.
	opStep shardOp = iota
	// opCloudPartial computes the shard's per-group cloud partial sums with
	// the member-count weights of Eq. (6); total carries Σ|M^t_n| over all
	// edges (the shard only knows its own counts).
	opCloudPartial
	// opInstallGlobal copies the freshly reduced global model into the
	// shard's edge models.
	opInstallGlobal
)

// shardCmd is one engine→shard command. The engine submits the same command
// to every shard and waits on the shared barrier; the channel is per-shard,
// so there is no cross-shard fan-in anywhere in the protocol.
type shardCmd struct {
	op    shardOp
	t     int
	total float64
}

// shardState is one control-plane shard: a contiguous edge range [lo, hi)
// aligned to cloud-reduce group boundaries [gLo, gHi), its range-scoped
// member index, and every per-step buffer the monolithic engine kept in one
// place. All fields are owned by the shard goroutine while a command is in
// flight and readable by the engine between commands (the barrier's
// WaitGroup provides the happens-before edge in both directions).
type shardState struct {
	e        *Engine
	id       int
	lo, hi   int // owned edge range [lo, hi)
	gLo, gHi int // owned cloud-reduce group range [gLo, gHi)

	index *mobility.MemberIndex
	cmd   chan shardCmd

	// Step outputs, read by the engine at the collect point.
	counts []edgeStepCounts // per owned edge, indexed n-lo

	// First decide and finalize errors, by edge order within the shard. The
	// engine checks all shards' decide errors before any finalize error,
	// mirroring the monolithic engine's decide-then-finalize error
	// precedence; shard ranges are ordered, so scanning shards in order
	// yields the lowest-edge error of each kind.
	decideErrEdge int
	decideErr     error
	finalErrEdge  int
	finalErr      error
	panicked      any
	hasPanic      bool

	// Observation buffer: the step's (edge, device, norms) records in edge
	// then member order, merged into the strategy's observer at the collect
	// point. The norms slices are the edge plans' per-device windows —
	// valid until the edges' next execution phase, which is after the merge.
	obsEdges []int
	obsDevs  []int
	obsNorms [][]float64

	// aggResults is the shard's upload-collection scratch, reused across its
	// edges exactly as the monolithic engine reused one slice across the
	// serial finalize loop.
	aggResults []localResult

	// items lists the step's sampled devices in edge order, then plan
	// order; the execution phase splits it into chunks.
	items []execItem

	// partials[g-gLo] is group g's cloud-reduce partial sum.
	partials [][]float64

	// probe is the shard's MACH-P probe scratch, built on first use. The
	// shard decides its edges serially, so it needs no lock.
	probe *probeState

	// Phase telemetry, observed by the engine at the collect point.
	decideNS, trainNS, finalNS int64
	queueDepth                 int
}

// newShardState builds shard id of S covering groups [G·id/S, G·(id+1)/S)
// and their edges.
func newShardState(e *Engine, id, shards int) *shardState {
	edges := e.nEdges
	groups := cloudGroups(edges)
	gLo, gHi := groups*id/shards, groups*(id+1)/shards
	lo, hi := rangeLo(edges, groups, gLo), rangeLo(edges, groups, gHi)
	s := &shardState{
		e:        e,
		id:       id,
		lo:       lo,
		hi:       hi,
		gLo:      gLo,
		gHi:      gHi,
		index:    mobility.NewMemberIndexWindow(lo, hi),
		counts:   make([]edgeStepCounts, hi-lo),
		partials: make([][]float64, gHi-gLo),
	}
	for g := range s.partials {
		s.partials[g] = make([]float64, len(e.global))
	}
	return s
}

// probeState is one shard's gradient-probe machinery: a network, a
// zero-step optimizer (probing measures gradients only), an RNG reseeded per
// probe, and the minibatch buffers.
type probeState struct {
	net *nn.Network
	opt *nn.SGD
	rng *rand.Rand
	x   *tensor.Tensor
	y   []int
	idx []int
}

// probeScratch returns the shard's probe scratch, building it on first use.
func (s *shardState) probeScratch() *probeState {
	if s.probe == nil {
		e, b, d := s.e, s.e.cfg.BatchSize, s.e.test
		s.probe = &probeState{
			net: e.evalNet.Clone(),
			opt: nn.NewSGD(0),
			rng: rand.New(rand.NewSource(e.cfg.Seed)), // reseeded per probe
			x:   tensor.New(b, d.InC, d.InH, d.InW),
			y:   make([]int, b),
			idx: make([]int, b),
		}
	}
	return s.probe
}

// startActors spins up one goroutine per shard. Run calls it after the pool
// exists; stopActors tears the goroutines down when Run returns.
func (e *Engine) startActors() {
	e.actorDone.Add(len(e.shards))
	for _, s := range e.shards {
		s.cmd = make(chan shardCmd, 1)
		go s.loop()
	}
	e.actorsUp = true
}

// stopActors closes every shard's command channel and waits for the
// goroutines to exit.
func (e *Engine) stopActors() {
	for _, s := range e.shards {
		close(s.cmd)
	}
	e.actorDone.Wait()
	e.actorsUp = false
}

// submitAll is the engine's submit/collect point: it hands cmd to every
// shard and blocks until all of them finish it. The shared WaitGroup is the
// only cross-goroutine synchronization of the protocol; its Wait gives the
// engine a happens-before view of everything the shards wrote.
func (e *Engine) submitAll(cmd shardCmd) {
	e.shardWG.Add(len(e.shards))
	for _, s := range e.shards {
		s.cmd <- cmd
	}
	e.shardWG.Wait()
}

// loop is the shard actor: one command at a time, in submission order.
func (s *shardState) loop() {
	defer s.e.actorDone.Done()
	for cmd := range s.cmd {
		s.exec(cmd)
		s.e.shardWG.Done()
	}
}

// exec dispatches one command, converting a panic into a stored value so the
// barrier always completes; the engine re-panics at the collect point,
// preserving the monolithic engine's panic-on-producer behavior.
func (s *shardState) exec(cmd shardCmd) {
	defer func() {
		if r := recover(); r != nil && !s.hasPanic {
			s.hasPanic, s.panicked = true, r
		}
	}()
	// The span reuses the edge dimension for the shard id and the device
	// dimension for the opcode, which keeps command spans of the same step
	// distinguishable. Step commands nest under the step span; the cloud
	// commands carry no step and stay roots.
	parent := telemetry.SpanID(0)
	if cmd.op == opStep {
		parent = telemetry.DeriveSpanID(telemetry.SpanStep, cmd.t, -1, -1)
	}
	sp := s.e.tel.StartSpan(telemetry.SpanShardCmd, parent, cmd.t, s.id, int(cmd.op))
	defer sp.End()
	switch cmd.op {
	case opStep:
		s.step(cmd.t)
	case opCloudPartial:
		s.cloudPartials(cmd.total)
	case opInstallGlobal:
		s.installGlobal()
	}
}

// step runs the shard's share of one time step: position the range index,
// decide every owned edge in edge order, execute the sampled devices' local
// updates on the shared pool, and finalize (observe + aggregate) in edge
// order. Everything written here is either owned by the shard (its edges,
// their decide states and plans, its index and buffers) or private to a
// device the schedule assigns to exactly one of its edges this step, so
// shards never contend; the experience book is only read (estimates) during
// the step, never written.
func (s *shardState) step(t int) {
	e := s.e
	start := e.tel.Now()
	s.decideErr, s.finalErr = nil, nil
	s.obsEdges = s.obsEdges[:0]
	s.obsDevs = s.obsDevs[:0]
	s.obsNorms = s.obsNorms[:0]
	s.queueDepth = 0
	// Repair the range index from the engine's move stream: only the moves
	// bucketed for this shard (those touching [lo, hi)) are replayed, so the
	// per-shard positioning cost is O(own moves), not a row-vs-row diff. The
	// row, bucket and rebuilt flag were written before the step was
	// submitted and are read-only until the barrier.
	s.index.AdvanceWith(t, e.row, e.shardMoves[s.id], e.stepRebuilt)
	for n := s.lo; n < s.hi; n++ {
		if err := e.edgeDecide(t, n); err != nil && s.decideErr == nil {
			s.decideErrEdge, s.decideErr = n, err
		}
	}
	decideEnd := e.tel.Now()
	s.decideNS = decideEnd - start
	// Phase spans reuse the timestamps already taken for the phase
	// histograms — no extra clock reads — and nest under this shard's step
	// command span (edge dimension = shard id, as in exec).
	cmdSpan := telemetry.DeriveSpanID(telemetry.SpanShardCmd, t, s.id, int(opStep))
	e.tel.RecordSpan(telemetry.SpanDecide, cmdSpan, t, s.id, -1, start, decideEnd)
	if s.decideErr != nil {
		return // the engine aborts the run; skip execution like the monolith
	}
	s.items = s.items[:0]
	for n := s.lo; n < s.hi; n++ {
		for i := range e.plans[n].devs {
			s.items = append(s.items, execItem{n, i})
		}
	}
	g := e.pool.Group()
	items := s.items
	k := execChunks(len(items), e.pool.Workers())
	for c := 0; c < k; c++ {
		chunk := items[rangeLo(len(items), k, c):rangeLo(len(items), k, c+1)]
		g.Go(func() { e.trainChunk(chunk) })
	}
	s.queueDepth = e.pool.QueueDepth()
	g.Wait()
	trainEnd := e.tel.Now()
	s.trainNS = trainEnd - decideEnd
	e.tel.RecordSpan(telemetry.SpanTrain, cmdSpan, t, s.id, -1, decideEnd, trainEnd)
	for n := s.lo; n < s.hi; n++ {
		counts, err := e.edgeFinalize(t, n, s)
		s.counts[n-s.lo] = counts
		if err != nil {
			s.finalErrEdge, s.finalErr = n, err
			break
		}
	}
	finalEnd := e.tel.Now()
	s.finalNS = finalEnd - trainEnd
	e.tel.RecordSpan(telemetry.SpanFinalize, cmdSpan, t, s.id, -1, trainEnd, finalEnd)
}

// cloudPartials computes the shard's per-group partial sums of Eq. (6):
// partials[g] = Σ_{n ∈ group g} (|M^t_n|/total)·w_n, accumulated in edge
// order within the group. Zero-count edges are skipped exactly as the
// monolithic fold skipped them.
func (s *shardState) cloudPartials(total float64) {
	edges, groups := s.e.nEdges, s.e.groups
	for g := s.gLo; g < s.gHi; g++ {
		dst := s.partials[g-s.gLo]
		for j := range dst {
			dst[j] = 0
		}
		for n := rangeLo(edges, groups, g); n < rangeLo(edges, groups, g+1); n++ {
			w := float64(s.index.Count(n)) / total
			//machlint:allow floateq zero weight is exact (0/total); skipping it avoids touching the partial with -0 terms
			if w == 0 {
				continue
			}
			weightedAccumInto(dst, s.e.edge[n], w)
		}
	}
}

// weightedAccumInto adds w·src to dst elementwise. dst is a shard's pooled
// group-partial buffer and src an edge model vector; they never share
// storage, and the accumulation corrupts dst if they do.
//
//machlint:noalias dst,src
//machlint:allocfree
func weightedAccumInto(dst, src []float64, w float64) {
	for j, v := range src {
		dst[j] += w * v
	}
}

// installGlobal redistributes the reduced global model to the shard's edges.
func (s *shardState) installGlobal() {
	for n := s.lo; n < s.hi; n++ {
		copy(s.e.edge[n], s.e.global)
	}
}

// surfaceShardPanics re-raises the first stored shard panic (in shard
// order) on the engine goroutine, preserving the monolithic engine's
// panic-on-producer behavior across the actor boundary.
func (e *Engine) surfaceShardPanics() {
	for _, s := range e.shards {
		if s.hasPanic {
			panic(s.panicked)
		}
	}
}

// stepEdgeError wraps a shard-reported per-edge failure exactly as the
// monolithic step loop did.
func stepEdgeError(t, n int, err error) error {
	return fmt.Errorf("hfl: step %d edge %d: %w", t, n, err)
}

// edgeMembers returns M^t_n from the owning shard's range index.
//
//machlint:allocfree
func (e *Engine) edgeMembers(n int) []int {
	s := e.shards[e.edgeShard[n]]
	return s.index.Members(n)
}

// collectStep is the engine side of a step's collect point: it surfaces
// shard panics and errors (decide before finalize, each in edge order),
// merges the shards' buffered observations into the strategy's observer in
// edge order, and publishes the shards' phase telemetry. It runs serially on
// the Run goroutine after the barrier, so everything it does is
// deterministic.
func (e *Engine) collectStep(t int) error {
	e.surfaceShardPanics()
	for _, s := range e.shards {
		if s.decideErr != nil {
			return stepEdgeError(t, s.decideErrEdge, s.decideErr)
		}
	}
	for _, s := range e.shards {
		if s.finalErr != nil {
			return stepEdgeError(t, s.finalErrEdge, s.finalErr)
		}
	}
	if e.observer != nil {
		for _, s := range e.shards {
			if len(s.obsDevs) == 0 {
				continue
			}
			if e.batchObs != nil {
				e.batchObs.ObserveBatch(t, s.obsEdges, s.obsDevs, s.obsNorms)
				continue
			}
			for i, m := range s.obsDevs {
				e.observer.Observe(t, s.obsEdges[i], m, s.obsNorms[i])
			}
		}
	}
	if e.tel != nil {
		e.collectShardTelemetry(t)
	}
	return nil
}

// collectShardTelemetry publishes the shards' phase durations and queue
// depths: into the engine-level phase histograms (one observation per shard
// per step — with one shard, exactly the monolithic engine's cadence), the
// per-shard telemetry slots, and — when the trace records this step — phase
// events in (phase, shard) order.
func (e *Engine) collectShardTelemetry(t int) {
	maxDepth := 0
	for _, s := range e.shards {
		e.tel.Observe(telemetry.HistDecideNS, s.decideNS)
		e.tel.Observe(telemetry.HistTrainNS, s.trainNS)
		e.tel.Observe(telemetry.HistAggregateNS, s.finalNS)
		e.tel.ObserveShardPhase(s.id, telemetry.ShardPhaseDecide, s.decideNS)
		e.tel.ObserveShardPhase(s.id, telemetry.ShardPhaseTrain, s.trainNS)
		e.tel.ObserveShardPhase(s.id, telemetry.ShardPhaseFinalize, s.finalNS)
		e.tel.SetShardQueueDepth(s.id, int64(s.queueDepth))
		if s.queueDepth > maxDepth {
			maxDepth = s.queueDepth
		}
	}
	e.tel.SetGauge(telemetry.GaugeQueueDepth, float64(maxDepth))
	tr := e.tel.Trace()
	if !tr.StepActive(t) {
		return
	}
	for _, name := range []struct {
		label string
		ns    func(*shardState) int64
	}{
		{"decide", func(s *shardState) int64 { return s.decideNS }},
		{"train", func(s *shardState) int64 { return s.trainNS }},
		{"finalize", func(s *shardState) int64 { return s.finalNS }},
	} {
		for _, s := range e.shards {
			tr.Emit(&telemetry.Event{Type: telemetry.EventPhase, Step: t, Phase: &telemetry.PhaseEvent{
				Name: name.label, NS: name.ns(s), Shard: s.id,
			}})
		}
	}
}
