package hfl

import (
	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/tensor"
)

// This file holds the execution phase: the local updates of Eq. (4) for the
// sampled devices of a step, in both compute lanes (Config.Lane) and with or
// without cross-device batch fusion (Config.FuseBatch, DESIGN.md §10). Every
// variant preserves the same semantics:
//
//   - Per-device RNG streams: each device's minibatches are drawn from
//     dev.rng in local-epoch order, so a device's draw sequence is
//     independent of lane, fusion and scheduling.
//   - Stateless scratch: a device keeps nothing but its data and stream
//     between steps. The networks, optimizer and buffers it trains with
//     belong to a worker's trainScratch and are fully reloaded from the edge
//     model before use, so which scratch a device borrows cannot reach a
//     value (New rejects Dropout, the one layer whose state outlives a step).
//   - Aggregation boundaries stay float64: the f32 lane trains on float32
//     compute copies of float64 master weights and uploads the masters.
//   - Determinism: results land in the device's plannedDevice slot of the
//     edge plan, which finalize reduces in member order, so results are
//     bit-identical for every worker count and fusion mode.

// trainScratch is one worker's training scratch: everything a local update
// needs besides the device's data and RNG stream. A task borrows one for its
// duration (borrowScratch), so at most Config.Workers exist. Slot i holds
// the i-th device of a fused edge plan; an unfused update uses slot 0.
type trainScratch struct {
	opt    *nn.SGD          // plain SGD holds no state, so slots share it
	opts   []nn.Optimizer   // opt, once per slot, for nn.Lockstep
	nets   []*nn.Network    // f64 lane: one network per slot
	lane   *nn.Lane32       // f32 lane: one executor, one slot per device
	ls     nn.Lockstep      // f64 lane: layer-lockstep walker
	xs     []*tensor.Tensor // per-slot minibatch pixels
	labels [][]int          // per-slot minibatch labels
	idx    []int            // minibatch index scratch
	losses []float64
	norms  []float64
}

// borrowScratch takes a training scratch off the free list, building an
// empty one when every existing scratch is in use. Pool tasks are the only
// borrowers and the pool runs at most Workers of them at a time.
func (e *Engine) borrowScratch() *trainScratch {
	e.scratchMu.Lock()
	defer e.scratchMu.Unlock()
	if k := len(e.scratchFree); k > 0 {
		sc := e.scratchFree[k-1]
		e.scratchFree = e.scratchFree[:k-1]
		return sc
	}
	return &trainScratch{opt: nn.NewSGD(e.lr)}
}

// releaseScratch returns a borrowed scratch to the free list.
func (e *Engine) releaseScratch(sc *trainScratch) {
	e.scratchMu.Lock()
	e.scratchFree = append(e.scratchFree, sc)
	e.scratchMu.Unlock()
}

// grow sizes the scratch for count slots, building networks (f64) or a
// wider executor (f32) from the engine's evaluation network on first need,
// and keeps everything across borrows.
func (sc *trainScratch) grow(e *Engine, count int) error {
	if e.cfg.Lane == LaneF32 {
		if sc.lane == nil || sc.lane.Slots() < count {
			lane, err := nn.NewLane32(e.evalNet, count)
			if err != nil {
				return err
			}
			sc.lane = lane
		}
	} else {
		for len(sc.nets) < count {
			sc.nets = append(sc.nets, e.evalNet.Clone())
		}
	}
	d := e.test
	for len(sc.xs) < count {
		sc.xs = append(sc.xs, tensor.New(e.cfg.BatchSize, d.InC, d.InH, d.InW))
		sc.labels = append(sc.labels, make([]int, e.cfg.BatchSize))
		sc.opts = append(sc.opts, sc.opt)
		sc.losses = append(sc.losses, 0)
		sc.norms = append(sc.norms, 0)
	}
	if sc.idx == nil {
		sc.idx = make([]int, e.cfg.BatchSize)
	}
	return nil
}

// trainDevices runs I local SGD steps (Eq. 4) for every device of devs, all
// starting from the edge model edgeParams, on one borrowed scratch. It
// writes each device's gradient-norm window into pd.sqNorms and, when the
// device uploads, its trained parameters into pd.params — both the slot's
// own buffers, reused across steps; observers copy what they keep. A
// failure is recorded in the failing device's pd.err.
//
// One call is one pool task: a single device when unfused, a whole edge
// plan when fused. Several devices march through the network layer by
// layer together (nn.Lockstep in the f64 lane, slots of one nn.Lane32 in
// the f32 lane); with one device both reduce exactly to that device's own
// sequential update, which is why fusion changes no bit.
//
//machlint:allocfree
func (e *Engine) trainDevices(devs []plannedDevice, edgeParams []float64) {
	sc := e.borrowScratch()
	defer e.releaseScratch(sc)
	count := len(devs)
	if err := sc.grow(e, count); err != nil {
		devs[0].err = err
		return
	}
	f32 := e.cfg.Lane == LaneF32
	for i := range devs {
		pd := &devs[i]
		if cap(pd.sqNorms) < e.cfg.LocalEpochs {
			pd.sqNorms = make([]float64, e.cfg.LocalEpochs)
		}
		pd.sqNorms = pd.sqNorms[:e.cfg.LocalEpochs]
		var err error
		if f32 {
			err = sc.lane.LoadParams(i, edgeParams)
		} else {
			err = sc.nets[i].SetParamVector(edgeParams)
		}
		if err != nil {
			pd.err = err
			return
		}
	}
	sc.opt.SetLearningRate(e.lr)
	batch := e.cfg.BatchSize
	for tau := 0; tau < e.cfg.LocalEpochs; tau++ {
		for i := range devs {
			dev := e.devices[devs[i].m]
			dev.data.RandomBatchInto(dev.rng, sc.xs[i], sc.labels[i], sc.idx)
			if f32 {
				sc.lane.SetInput(i, batch, sc.xs[i].Data())
			}
		}
		if f32 {
			sc.lane.TrainStep(count, batch, sc.labels[:count], e.lr, sc.losses, sc.norms)
		} else {
			sc.ls.Step(sc.nets[:count], sc.xs[:count], sc.labels[:count], sc.opts[:count], sc.losses, sc.norms)
		}
		for i := range devs {
			devs[i].sqNorms[tau] = sc.norms[i]
		}
	}
	for i := range devs {
		pd := &devs[i]
		if !pd.upload {
			continue // the upload is lost; its parameters are never read
		}
		if f32 {
			pd.params = sc.lane.ParamsInto(i, pd.params)
		} else {
			pd.params = sc.nets[i].ParamVectorInto(pd.params)
		}
	}
}
