package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/mach-fl/mach/internal/telemetry"
)

// rep is one world's run: its set-up times and what the run did.
type rep struct {
	setupNS []int64
	st      opStats
	in      *layerInputs
}

// setupRepeat is how long each world is set up for: at least once, and
// again — closing the spare copy — until this much time has passed, so that
// setup_s is a median over many set-ups even where one takes milliseconds.
const setupRepeat = 50 * time.Millisecond

// gate runs worlds and holds the determinism gate: every run of one world
// must produce the digest of its first run, traced or not.
type gate struct {
	w       *workload
	seed    int64
	res     *result
	out     io.Writer
	digests map[int]uint64
}

func newGate(w *workload, seed int64, res *result, out io.Writer) *gate {
	return &gate{w: w, seed: seed, res: res, out: out, digests: map[int]uint64{}}
}

// run sets up and runs one world; ok is false when it failed.
func (g *gate) run(world int, tr *tracer) (r rep, ok bool) {
	var op operation
	var spent time.Duration
	for op == nil {
		runtime.GC() // earlier garbage is not this set-up's cost
		t0 := telemetry.WallNow()
		o, err := g.w.setup(g.seed, world, tr)
		d := telemetry.WallSince(t0)
		if err != nil {
			g.res.Attempted++
			g.res.fail(g.out, "%s world %d setup: %v", g.w.name, world, err)
			return r, false
		}
		r.setupNS = append(r.setupNS, d.Nanoseconds())
		if spent += d; spent >= setupRepeat {
			op = o
		} else if err := o.close(); err != nil {
			g.res.fail(g.out, "%s world %d teardown: %v", g.w.name, world, err)
		}
	}
	st, err := op.run(tr)
	if err == nil {
		st.heapBytes = liveHeap() // the world's engines or servers are still held
	}
	if tr != nil {
		r.in = op.inputs() // only traced runs feed the probes; holding more would inflate the heap
	}
	err = errors.Join(err, op.close())
	g.res.Attempted += max(st.runs, 1)
	if err != nil {
		g.res.fail(g.out, "%s world %d: %v", g.w.name, world, err)
		return r, false
	}
	for _, b := range st.bad {
		g.res.fail(g.out, "%s world %d: %s", g.w.name, world, b)
	}
	if first, seen := g.digests[world]; !seen {
		g.digests[world] = st.digest
	} else if st.digest != first {
		g.res.fail(g.out, "%s world %d: digest %016x differs from its first run's %016x (this run traced: %v)",
			g.w.name, world, st.digest, first, tr != nil)
	}
	r.st = st
	return r, len(st.bad) == 0
}

// measureWorkload is the untraced run. It makes passes over the workload's
// worlds — a closed loop, each world starting when the previous returns —
// while another pass still fits the budget, and always at least one; when
// only one fits, world 0 runs again for the determinism gate. Each
// end-to-end metric is the median over passes of the pass's aggregate;
// per-step latencies pool every pass.
func measureWorkload(w *workload, seed int64, budget time.Duration, out io.Writer) *result {
	res := newResult()
	g := newGate(w, seed, res, out)
	var passes [][]rep
	start := telemetry.WallNow()
	for {
		var pass []rep
		for world := 0; world < w.worlds; world++ {
			if r, ok := g.run(world, nil); ok {
				pass = append(pass, r)
			}
		}
		if len(pass) > 0 {
			passes = append(passes, pass)
		}
		el := telemetry.WallSince(start)
		if len(passes) == 0 || el+el/time.Duration(len(passes)) > budget {
			break
		}
	}
	if len(passes) < 2 {
		g.run(0, nil)
	}
	if len(passes) == 0 {
		res.Correct = false
		return res
	}
	var setup, runS, steps, trainedPS, decisionsPS, acc, bytesPS, stepMS, heap []float64
	for _, pass := range passes {
		var tot opStats
		for _, r := range pass {
			st := r.st
			for _, ns := range r.setupNS {
				setup = append(setup, float64(ns)/1e9)
			}
			for _, ns := range st.stepNS {
				stepMS = append(stepMS, float64(ns)/1e6)
			}
			tot.runs += st.runs
			tot.wallNS += st.wallNS
			tot.steps += st.steps
			tot.trained += st.trained
			tot.decisions += st.decisions
			tot.accSum += st.accSum
			tot.commBytes += st.commBytes
			tot.heapBytes = max(tot.heapBytes, st.heapBytes)
		}
		wallS := float64(tot.wallNS) / 1e9
		runS = append(runS, wallS/float64(tot.runs))
		steps = append(steps, float64(tot.steps)/float64(tot.runs))
		trainedPS = append(trainedPS, float64(tot.trained)/wallS)
		decisionsPS = append(decisionsPS, float64(tot.decisions)/wallS)
		acc = append(acc, tot.accSum/float64(tot.runs))
		bytesPS = append(bytesPS, float64(tot.commBytes)/float64(tot.steps))
		heap = append(heap, float64(tot.heapBytes)/(1<<20))
	}
	d := endToEndMetrics
	res.set(d, "setup_s", median(setup))
	res.set(d, "step_ms_p50", quantile(stepMS, 0.5))
	res.set(d, "step_ms_p90", quantile(stepMS, 0.9))
	res.set(d, "devices_trained_per_s", median(trainedPS))
	res.set(d, "decisions_per_s", median(decisionsPS))
	res.set(d, "final_accuracy", median(acc))
	res.set(d, "comm_bytes_per_step", median(bytesPS))
	res.set(d, "live_heap_mib", median(heap))
	// Printed, not registered: how long a Run takes depends on the world as
	// much as on the code (on fig3-mnist-mlp, when the target is reached),
	// so across seeds it spreads wider than any bound a regression gate
	// could use.
	runName, stepsName := "run_s", "steps_per_run"
	if passes[0][0].st.target {
		runName, stepsName = "time_to_target_s", "steps_to_target"
	}
	res.note(runName, median(runS), "s")
	res.note(stepsName, median(steps), "count")
	res.note("step_ms_mean", 1000*median(runS)/median(steps), "ms")
	res.note("peak_rss_mib", peakRSSMiB(), "MiB")
	fmt.Fprintf(out, "# %d passes over %d worlds, %d set-ups, %d step samples; setup_s p90 %.4g, step_ms p99 %.4g\n",
		len(passes), w.worlds, len(setup), len(stepMS), quantile(setup, 0.9), quantile(stepMS, 0.99))
	return res
}

// median is the 0.5 quantile.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics; NaN when empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
