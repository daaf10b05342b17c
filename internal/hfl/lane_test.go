package hfl

import (
	"fmt"
	"math"
	"testing"

	"github.com/mach-fl/mach/internal/sampling"
)

// runLane runs the standard parallel-test experiment (12 devices, 3 edges,
// 12 steps, MACH sampling) under the given compute lane and worker count and
// returns the result and final global parameters.
func runLane(t *testing.T, lane Lane, workers int) (*Result, []float64) {
	t.Helper()
	parts, test, sched := tinySetup(t, 12, 3, 12, 21)
	cfg := tinyConfig(12, 21)
	cfg.Workers = workers
	cfg.UploadFailureProb = 0.2
	cfg.EvalBatch = 100
	cfg.Lane = lane
	strat, err := sampling.NewMACH(12, sampling.DefaultMACHConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cfg, tinyArch, parts, test, sched, strat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.GlobalParams()
}

// mustSameRun asserts two runs are indistinguishable: identical sampling
// decisions, bitwise-identical history and final global parameters.
func mustSameRun(t *testing.T, label string, refRes *Result, refParams []float64, res *Result, params []float64) {
	t.Helper()
	if len(res.SampledPerStep) != len(refRes.SampledPerStep) {
		t.Fatalf("%s: %d steps vs %d", label, len(res.SampledPerStep), len(refRes.SampledPerStep))
	}
	for i, v := range refRes.SampledPerStep {
		if res.SampledPerStep[i] != v {
			t.Fatalf("%s: SampledPerStep[%d] = %d, want %d", label, i, res.SampledPerStep[i], v)
		}
	}
	if res.TotalSampled != refRes.TotalSampled || res.Comm != refRes.Comm {
		t.Fatalf("%s: totals diverged: %+v vs %+v", label, res, refRes)
	}
	refPts, pts := refRes.History.Points, res.History.Points
	if len(pts) != len(refPts) {
		t.Fatalf("%s: %d history points vs %d", label, len(pts), len(refPts))
	}
	for i := range refPts {
		if pts[i] != refPts[i] {
			t.Fatalf("%s: history[%d] = %+v, want %+v", label, i, pts[i], refPts[i])
		}
	}
	if len(params) != len(refParams) {
		t.Fatalf("%s: %d params vs %d", label, len(params), len(refParams))
	}
	for j, v := range refParams {
		if math.Float64bits(params[j]) != math.Float64bits(v) {
			t.Fatalf("%s: global param %d = %v, want %v", label, j, params[j], v)
		}
	}
}

// TestRunF32BitIdenticalAcrossWorkerCounts extends the engine's determinism
// contract to the float32 lane: the f32 lane is NOT required to match the
// f64 lane bitwise (it rounds differently by design), but it must be
// bit-identical to itself at every worker count. The subtest keeps the name
// "unfused" that it had when a fused execution path existed beside it.
func TestRunF32BitIdenticalAcrossWorkerCounts(t *testing.T) {
	t.Run("unfused", func(t *testing.T) {
		refRes, refParams := runLane(t, LaneF32, 1)
		for _, workers := range []int{3, 8} {
			res, params := runLane(t, LaneF32, workers)
			mustSameRun(t, "f32", refRes, refParams, res, params)
		}
	})
}

// TestRunChunkedBitIdenticalAcrossWorkerCounts: with far more sampled
// devices per step than chunksPerWorker·Workers, devices share execution
// chunks, and the chunk layout differs at every worker count. Grouping
// devices must never change a result, in either lane.
func TestRunChunkedBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const devices, steps = 200, 6
	run := func(t *testing.T, lane Lane, workers int) (*Result, []float64) {
		t.Helper()
		parts, test, sched := tinySetup(t, devices, 4, steps, 9)
		cfg := tinyConfig(steps, 9)
		cfg.Participation = 1
		cfg.UploadFailureProb = 0.2
		cfg.EvalBatch = 100
		cfg.Workers = workers
		cfg.Lane = lane
		strat, err := sampling.NewMACH(devices, sampling.DefaultMACHConfig())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(cfg, tinyArch, parts, test, sched, strat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.GlobalParams()
	}
	for _, lane := range []Lane{LaneF64, LaneF32} {
		t.Run(lane.String(), func(t *testing.T) {
			refRes, refParams := run(t, lane, 1)
			chunked := false
			for _, n := range refRes.SampledPerStep {
				chunked = chunked || n > chunksPerWorker
			}
			if !chunked {
				t.Fatalf("no step sampled more than %d devices: %v", chunksPerWorker, refRes.SampledPerStep)
			}
			for _, workers := range []int{3, 8} {
				res, params := run(t, lane, workers)
				mustSameRun(t, fmt.Sprintf("%v/workers=%d", lane, workers), refRes, refParams, res, params)
			}
		})
	}
}

// TestRunF32TracksF64 bounds the float32 lane's drift from the float64
// reference. Uniform sampling keeps the device selections identical across
// lanes (MACH feeds gradient norms back into decisions, which would let a
// one-ulp difference flip a sample), so the remaining divergence is pure
// float32 rounding in forward/backward. The float64 master weights must stay
// close elementwise and the final accuracy must agree within tolerance.
// scripts/check.sh runs this test as the f32-lane smoke.
func TestRunF32TracksF64(t *testing.T) {
	run := func(lane Lane) (*Result, []float64) {
		parts, test, sched := tinySetup(t, 12, 3, 12, 21)
		cfg := tinyConfig(12, 21)
		cfg.Lane = lane
		eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.GlobalParams()
	}
	refRes, refParams := run(LaneF64)
	refAcc := refRes.History.Points[len(refRes.History.Points)-1].Accuracy
	res, params := run(LaneF32)
	acc := res.History.Points[len(res.History.Points)-1].Accuracy
	if d := math.Abs(acc - refAcc); d > 0.05 {
		t.Fatalf("f32 final accuracy %.4f drifted %.4f from f64 %.4f", acc, d, refAcc)
	}
	for j, v := range refParams {
		if d := math.Abs(params[j] - v); d > 1e-2*math.Max(1, math.Abs(v)) {
			t.Fatalf("param %d = %v, f64 %v (diff %v)", j, params[j], v, d)
		}
	}
}
