package hfl

import (
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/tensor"
)

// This file holds the execution phase: the local updates of Eq. (4) for the
// sampled devices of a step, in both compute lanes (Config.Lane, DESIGN.md
// §10). Each shard splits its sampled devices into execution chunks
// (execChunks), and each chunk is one pool task that trains its devices one
// after another. Every layout preserves the same semantics:
//
//   - Per-device RNG streams: each device's minibatches are drawn from
//     dev.rng in local-epoch order, so a device's draw sequence is
//     independent of lane, chunking and scheduling.
//   - Stateless scratch: a device keeps nothing but its data and stream
//     between steps. The network, optimizer and buffers it trains with
//     belong to a worker's trainScratch and are fully reloaded from the edge
//     model before use, so which scratch a device borrows cannot reach a
//     value (New rejects Dropout, the one layer whose state outlives a step).
//   - Aggregation boundaries stay float64: the f32 lane trains on float32
//     compute copies of float64 master weights and uploads the masters.
//   - Determinism: results land in the device's plannedDevice slot of the
//     edge plan, which finalize reduces in member order, so results are
//     bit-identical for every worker count and chunk layout.

// chunksPerWorker sets the execution-chunk count of a shard's step to
// min(devices, chunksPerWorker·Workers). Up to that many sampled devices,
// every device is its own pool task; the Figure-3 MLP and CNN cells sample
// ~15 devices a step and stay there. Beyond it, per-task overhead dominates
// a tiny update, so contiguous devices share a task. The factor is large
// because a chunk's devices run serially: at 4·Workers, 2-device chunks on
// the CNN cell left ~7 tasks per worker and a tail imbalance that cost
// devices/s in 4 of 4 paired runs (EXPERIMENTS.md). Re-measure before
// lowering it.
const chunksPerWorker = 32

// execChunks returns how many execution chunks n sampled devices split into
// for a pool of the given worker count. Chunk c covers items
// [rangeLo(n, k, c), rangeLo(n, k, c+1)), so chunk sizes differ by at most
// one.
func execChunks(n, workers int) int {
	return min(n, chunksPerWorker*workers)
}

// execItem names one sampled device of a shard's step: slot i of edge n's
// plan.
type execItem struct{ n, i int }

// trainScratch is one worker's training scratch: everything a local update
// needs besides the device's data and RNG stream. An execution chunk borrows
// one for its duration (borrowScratch), so at most Config.Workers exist.
type trainScratch struct {
	opt    *nn.SGD
	net    *nn.Network // f64 lane
	lane   *nn.Lane32  // f32 lane
	x      *tensor.Tensor
	labels []int
	idx    []int // minibatch index scratch
}

// borrowScratch takes a training scratch off the free list, building one
// from the engine's evaluation network when every existing scratch is in
// use. Pool tasks are the only borrowers and the pool runs at most Workers
// of them at a time.
func (e *Engine) borrowScratch() (*trainScratch, error) {
	e.scratchMu.Lock()
	if k := len(e.scratchFree); k > 0 {
		sc := e.scratchFree[k-1]
		e.scratchFree = e.scratchFree[:k-1]
		e.scratchMu.Unlock()
		return sc, nil
	}
	e.scratchMu.Unlock()
	b, d := e.cfg.BatchSize, e.test
	sc := &trainScratch{
		opt:    nn.NewSGD(e.lr),
		x:      tensor.New(b, d.InC, d.InH, d.InW),
		labels: make([]int, b),
		idx:    make([]int, b),
	}
	if e.cfg.Lane == LaneF32 {
		lane, err := nn.NewLane32(e.evalNet)
		if err != nil {
			return nil, err
		}
		sc.lane = lane
	} else {
		sc.net = e.evalNet.Clone()
	}
	return sc, nil
}

// releaseScratch returns a borrowed scratch to the free list.
func (e *Engine) releaseScratch(sc *trainScratch) {
	e.scratchMu.Lock()
	e.scratchFree = append(e.scratchFree, sc)
	e.scratchMu.Unlock()
}

// trainChunk is one pool task: it trains the devices of items in order on
// one borrowed scratch. A scratch that cannot be built fails every device of
// the chunk.
//
//machlint:allocfree
func (e *Engine) trainChunk(items []execItem) {
	sc, err := e.borrowScratch()
	if err != nil {
		for _, it := range items {
			e.plans[it.n].devs[it.i].err = err
		}
		return
	}
	defer e.releaseScratch(sc)
	for _, it := range items {
		e.trainDevice(sc, &e.plans[it.n].devs[it.i], e.edge[it.n])
	}
}

// trainDevice runs I local SGD steps (Eq. 4) for device pd.m starting from
// the edge model edgeParams. It writes the device's gradient-norm window into
// pd.sqNorms and, when the device uploads, its trained parameters into
// pd.params — both the slot's own buffers, reused across steps; observers
// copy what they keep. A failure is recorded in pd.err.
//
//machlint:allocfree
func (e *Engine) trainDevice(sc *trainScratch, pd *plannedDevice, edgeParams []float64) {
	if cap(pd.sqNorms) < e.cfg.LocalEpochs {
		pd.sqNorms = make([]float64, e.cfg.LocalEpochs)
	}
	pd.sqNorms = pd.sqNorms[:e.cfg.LocalEpochs]
	f32 := e.cfg.Lane == LaneF32
	var err error
	if f32 {
		err = sc.lane.LoadParams(edgeParams)
	} else {
		err = sc.net.SetParamVector(edgeParams)
	}
	if err != nil {
		pd.err = err
		return
	}
	sc.opt.SetLearningRate(e.lr)
	dev := e.devices[pd.m]
	batch := e.cfg.BatchSize
	for tau := range pd.sqNorms {
		dev.data.RandomBatchInto(dev.rng, sc.x, sc.labels, sc.idx)
		if f32 {
			sc.lane.SetInput(batch, sc.x.Data())
			_, pd.sqNorms[tau] = sc.lane.TrainStep(batch, sc.labels, e.lr)
		} else {
			_, pd.sqNorms[tau] = sc.net.TrainStep(sc.x, sc.labels, sc.opt)
		}
	}
	if !pd.upload {
		return // the upload is lost; its parameters are never read
	}
	if f32 {
		pd.params = sc.lane.ParamsInto(pd.params)
	} else {
		pd.params = sc.net.ParamVectorInto(pd.params)
	}
}
