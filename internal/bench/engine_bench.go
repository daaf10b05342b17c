package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"

	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/telemetry"
	"github.com/mach-fl/mach/internal/tensor"
)

// EngineBenchPreset is the fixed micro configuration of `machbench -exp
// engine`: a Figure-3-shaped MNIST cell at CI scale, single run, MACH
// sampling. Keeping the shape frozen makes BENCH_engine.json comparable
// across commits.
func EngineBenchPreset() Config {
	cfg := TaskPreset(TaskMNIST, ScaleCI)
	cfg.Steps = 60
	cfg.Runs = 1
	cfg.EvalEvery = 10
	cfg.SmoothWindow = 1
	return cfg
}

// EngineBenchRow measures one full engine run of one cell: a compute lane
// at one worker-pool size.
type EngineBenchRow struct {
	// Lane is the compute lane of the cell ("f64" or "f32").
	Lane string `json:"lane"`
	// Workers is the resolved pool size passed to hfl.Config.Workers.
	Workers int `json:"workers"`
	// StepsRun is the number of simulated time steps executed.
	StepsRun int `json:"steps_run"`
	// DevicesTrained counts device participations (local update runs).
	DevicesTrained int `json:"devices_trained"`
	// WallNs is the wall-clock duration of Engine.Run.
	WallNs int64 `json:"wall_ns"`
	// NsPerStep is WallNs / StepsRun — the per-time-step cost including
	// sampling decisions, aggregation and periodic evaluation.
	NsPerStep int64 `json:"ns_per_step"`
	// NsPerDeviceUpdate is WallNs / DevicesTrained.
	NsPerDeviceUpdate int64 `json:"ns_per_device_update"`
	// DevicesTrainedPerSec is the training throughput of the run.
	DevicesTrainedPerSec float64 `json:"devices_trained_per_sec"`
	// AllocsPerStep and BytesPerStep are heap-allocation counts per time
	// step over the whole run, including warm-up of the reusable scratch
	// buffers (steady-state-only numbers live in the package tests).
	AllocsPerStep float64 `json:"allocs_per_step"`
	BytesPerStep  float64 `json:"bytes_per_step"`
	// SpeedupVsSerial is row 0's WallNs divided by this row's WallNs. Row 0
	// is always the f64 / serial cell — the engine's committed
	// baseline — so every other cell's speedup reads against it directly.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// FinalAccuracy is recorded so bit-identity across worker counts can be
	// eyeballed straight from the JSON.
	FinalAccuracy float64 `json:"final_accuracy"`
}

// MatMulBenchRow compares the blocked kernel against a naive triple loop at
// one square size, tracking the acceptance criterion that blocked ns/op
// stays below naive at 128³ and beyond.
type MatMulBenchRow struct {
	Size           int     `json:"size"`
	BlockedNsPerOp int64   `json:"blocked_ns_per_op"`
	NaiveNsPerOp   int64   `json:"naive_ns_per_op"`
	Speedup        float64 `json:"speedup"`
}

// EngineBenchResult is the payload of BENCH_engine.json.
type EngineBenchResult struct {
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Task       string           `json:"task"`
	Model      string           `json:"model"`
	Devices    int              `json:"devices"`
	Edges      int              `json:"edges"`
	Steps      int              `json:"steps"`
	Strategy   string           `json:"strategy"`
	Rows       []EngineBenchRow `json:"rows"`
	MatMul     []MatMulBenchRow `json:"matmul"`
	// Profiles names the pprof files captured with this run, if any.
	Profiles *ProfileMeta `json:"profiles,omitempty"`
}

// engineBenchWorkerCounts picks the pool sizes to measure: serial, two
// workers (pool overhead on small machines) and every core.
func engineBenchWorkerCounts() []int {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	out := counts[:0]
	seen := map[int]bool{}
	for _, c := range counts {
		if c >= 1 && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// engineBenchLanes lists the compute lanes in measurement order. The first
// is f64 — the committed baseline whose serial row anchors SpeedupVsSerial
// and the check-script headline.
var engineBenchLanes = []string{"f64", "f32"}

// RunEngineBench runs the frozen micro configuration once per lane and
// worker count, recording wall time, throughput and allocation pressure per
// cell.
func RunEngineBench(cfg Config) (*EngineBenchResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &EngineBenchResult{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Task:       string(cfg.Task),
		Model:      cfg.Model,
		Devices:    cfg.Devices,
		Edges:      cfg.Edges,
		Steps:      cfg.Steps,
		Strategy:   StratMACH,
	}
	for _, laneName := range engineBenchLanes {
		for _, workers := range engineBenchWorkerCounts() {
			// Fresh environment, strategy and engine per measurement so no
			// run warms another's caches; the seeds are identical, so the
			// simulated trajectory is too (bitwise within a lane).
			env, err := cfg.BuildEnvironment(0)
			if err != nil {
				return nil, err
			}
			strat, err := cfg.NewStrategy(StratMACH)
			if err != nil {
				return nil, err
			}
			hcfg := cfg.HFLConfig(0)
			hcfg.Workers = workers
			lane, err := hfl.ParseLane(laneName)
			if err != nil {
				return nil, err
			}
			hcfg.Lane = lane
			eng, err := hfl.New(hcfg, cfg.Arch(), env.DeviceData, env.Test, env.Schedule, strat)
			if err != nil {
				return nil, fmt.Errorf("bench: engine (lane=%s workers=%d): %w", laneName, workers, err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := telemetry.WallNow()
			run, err := eng.Run()
			wall := telemetry.WallSince(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, fmt.Errorf("bench: engine run (lane=%s workers=%d): %w", laneName, workers, err)
			}
			row := EngineBenchRow{
				Lane:           laneName,
				Workers:        workers,
				StepsRun:       run.StepsRun,
				DevicesTrained: run.TotalSampled,
				WallNs:         wall.Nanoseconds(),
				FinalAccuracy:  run.History.FinalAccuracy(),
			}
			if run.StepsRun > 0 {
				row.NsPerStep = wall.Nanoseconds() / int64(run.StepsRun)
				row.AllocsPerStep = float64(after.Mallocs-before.Mallocs) / float64(run.StepsRun)
				row.BytesPerStep = float64(after.TotalAlloc-before.TotalAlloc) / float64(run.StepsRun)
			}
			if run.TotalSampled > 0 {
				row.NsPerDeviceUpdate = wall.Nanoseconds() / int64(run.TotalSampled)
				row.DevicesTrainedPerSec = float64(run.TotalSampled) / wall.Seconds()
			}
			if len(res.Rows) > 0 && row.WallNs > 0 {
				row.SpeedupVsSerial = float64(res.Rows[0].WallNs) / float64(row.WallNs)
			} else {
				row.SpeedupVsSerial = 1
			}
			res.Rows = append(res.Rows, row)
		}
	}
	for _, size := range []int{128, 256} {
		res.MatMul = append(res.MatMul, benchMatMul(size))
	}
	return res, nil
}

// benchMatMul times tensor.MatMulInto against a naive i-j-k triple loop on
// one n×n×n product, taking the best of three runs each.
func benchMatMul(n int) MatMulBenchRow {
	rng := rand.New(rand.NewSource(42))
	a := tensor.Randn(rng, 1, n, n)
	b := tensor.Randn(rng, 1, n, n)
	dst := tensor.New(n, n)
	blocked := bestOf(3, func() { tensor.MatMulInto(dst, a, b) })
	ad, bd, dd := a.Data(), b.Data(), dst.Data()
	naive := bestOf(3, func() {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += ad[i*n+k] * bd[k*n+j]
				}
				dd[i*n+j] = s
			}
		}
	})
	row := MatMulBenchRow{Size: n, BlockedNsPerOp: blocked, NaiveNsPerOp: naive}
	if blocked > 0 {
		row.Speedup = float64(naive) / float64(blocked)
	}
	return row
}

func bestOf(iters int, fn func()) int64 {
	best := int64(0)
	for i := 0; i < iters; i++ {
		start := telemetry.WallNow()
		fn()
		d := telemetry.WallSince(start).Nanoseconds()
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// WriteEngineBenchJSON writes the result as indented JSON.
func (r *EngineBenchResult) WriteEngineBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RenderEngineBench prints the result as a text table.
func RenderEngineBench(w io.Writer, r *EngineBenchResult) error {
	if _, err := fmt.Fprintf(w, "Engine micro-benchmark — %s/%s, %d CPU (GOMAXPROCS=%d)\n", r.GOOS, r.GOARCH, r.NumCPU, r.GOMAXPROCS); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "config: task=%s model=%s devices=%d edges=%d steps=%d strategy=%s\n\n", r.Task, r.Model, r.Devices, r.Edges, r.Steps, r.Strategy); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%5s %8s %10s %14s %12s %14s %14s %9s %8s\n",
		"lane", "workers", "ns/step", "ns/dev-update", "devices/s", "allocs/step", "bytes/step", "speedup", "acc"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%5s %8d %10d %14d %12.1f %14.1f %14.0f %8.2fx %8.4f\n",
			row.Lane, row.Workers, row.NsPerStep, row.NsPerDeviceUpdate, row.DevicesTrainedPerSec,
			row.AllocsPerStep, row.BytesPerStep, row.SpeedupVsSerial, row.FinalAccuracy); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n%8s %14s %14s %9s\n", "matmul", "blocked ns/op", "naive ns/op", "speedup"); err != nil {
		return err
	}
	for _, m := range r.MatMul {
		if _, err := fmt.Fprintf(w, "%7d³ %14d %14d %8.2fx\n", m.Size, m.BlockedNsPerOp, m.NaiveNsPerOp, m.Speedup); err != nil {
			return err
		}
	}
	return nil
}
