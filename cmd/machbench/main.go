// Command machbench regenerates the paper's evaluation — every figure and
// table — on the simulator. Results print as text tables; see EXPERIMENTS.md
// for the recorded paper-vs-measured comparison.
//
// Usage:
//
//	machbench -exp fig3 -task mnist -scale ci
//	machbench -exp all -scale full          # paper-scale, slow
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/mach-fl/mach/internal/bench"
	"github.com/mach-fl/mach/internal/hfl"
	"github.com/mach-fl/mach/internal/telemetry"
)

// csvDir, when set by -out, receives per-strategy accuracy curves.
var csvDir string

// exportCurves writes one CSV per strategy of a comparison.
func exportCurves(prefix string, cmp *bench.Comparison) error {
	if csvDir == "" {
		return nil
	}
	for _, res := range cmp.Results {
		path := filepath.Join(csvDir, fmt.Sprintf("%s_%s.csv", prefix, res.Strategy))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		err = res.History.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return nil
}

// writeLookupProfile dumps a runtime profile (block, mutex) at exit.
func writeLookupProfile(name, path string) {
	p := pprof.Lookup(name)
	if p == nil {
		fmt.Fprintf(os.Stderr, "machbench: no %s profile\n", name)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "machbench: create %s profile: %v\n", name, err)
		return
	}
	if err := p.WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "machbench: write %s profile: %v\n", name, err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "machbench: close %s profile: %v\n", name, err)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "machbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp    = flag.String("exp", "fig3", "experiment: fig3 | fig4 | fig5 | table1 | ablations | engine | comm | scale | telemetry | all")
		task   = flag.String("task", "", "task: mnist | fmnist | cifar10 (default: all tasks)")
		scale  = flag.String("scale", "ci", "scale: ci | full")
		quick  = flag.Bool("quick", false, "use the seconds-scale smoke preset (scale/telemetry experiments only)")
		shards = flag.String("shards", "", "comma-separated shard counts for the scale experiment's sharded rows (empty = preset sweep)")

		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		blockProfile = flag.String("blockprofile", "", "write a goroutine blocking profile to this file on exit")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex contention profile to this file on exit")
		seed         = flag.Int64("seed", 1, "base random seed")
		runs         = flag.Int("runs", 0, "override number of averaged runs (0 = preset)")
		steps        = flag.Int("steps", 0, "override step budget (0 = preset)")

		devices = flag.Int("devices", 0, "override device count (0 = preset)")
		edges   = flag.Int("edges", 0, "override edge count (0 = preset)")
		batch   = flag.Int("batch", 0, "override batch size (0 = preset)")
		lr      = flag.Float64("lr", 0, "override learning rate (0 = preset)")
		part    = flag.Float64("participation", 0, "override participation (0 = preset)")
		tail    = flag.Float64("tail", 0, "override device tail ratio (0 = preset)")
		gtail   = flag.Float64("gtail", -1, "override global tail ratio (-1 = preset)")
		alpha   = flag.Float64("alpha", 0, "override MACH alpha (0 = preset)")
		beta    = flag.Float64("beta", 0, "override MACH beta (0 = preset)")
		target  = flag.Float64("target", 0, "override target accuracy (0 = preset)")
		agg     = flag.String("agg", "", "override aggregation: inverse | plain | literal")
		lane    = flag.String("lane", "", "override compute lane for local updates: f64 | f32 (default: preset)")
		conf    = flag.String("config", "", "JSON experiment config layered over the preset")
		outDir  = flag.String("out", "", "directory for per-strategy CSV curves and the resolved config (optional)")
		ndev    = flag.Float64("noisydev", -1, "override noisy-device fraction (-1 = preset)")
		nlab    = flag.Float64("noisylab", -1, "override noisy-label fraction (-1 = preset)")
		speed   = flag.Float64("speed", 0, "override mobility speed multiplier (0 = preset)")
		explore = flag.Float64("explore", -1, "override MACH exploration coefficient (-1 = preset)")
		disc    = flag.Float64("discount", 0, "override MACH discount (0 = preset)")
		epochs  = flag.Int("epochs", 0, "override local epochs I (0 = preset)")
		tg      = flag.Int("tg", 0, "override cloud interval Tg (0 = preset)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "machbench: close cpu profile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "machbench: create mem profile:", err)
				return
			}
			runtime.GC() // material heap only
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "machbench: write mem profile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "machbench: close mem profile:", err)
			}
		}()
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeLookupProfile("block", *blockProfile)
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeLookupProfile("mutex", *mutexProfile)
	}
	// profiles is recorded into the JSON-writing experiments' results, so a
	// committed number can be traced back to the profiles captured with it.
	var profiles *bench.ProfileMeta
	if *cpuProfile != "" || *memProfile != "" || *blockProfile != "" || *mutexProfile != "" {
		profiles = &bench.ProfileMeta{
			CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile, Mutex: *mutexProfile,
		}
	}

	if *exp == "scale" {
		// The control-plane scale benchmark builds synthetic populations;
		// task/scale flags don't apply.
		return runScale(*outDir, *quick, *shards, profiles)
	}
	if *exp == "engine" {
		// The engine micro-benchmark runs a frozen configuration so its
		// numbers are comparable across commits; task/scale flags don't
		// apply.
		return runEngine(*outDir, profiles)
	}
	if *exp == "comm" {
		// Same deal for the wire-format benchmark: a frozen distributed
		// deployment measured per codec scheme.
		return runComm(*outDir, profiles)
	}
	if *exp == "telemetry" {
		// The telemetry overhead benchmark reruns one control-plane workload
		// per observability tier; task/scale flags don't apply.
		return runTelemetry(*outDir, *quick, profiles)
	}

	tasks := bench.AllTasks()
	if *task != "" {
		tasks = []bench.Task{bench.Task(*task)}
	}
	sc := bench.Scale(*scale)
	if sc != bench.ScaleCI && sc != bench.ScaleFull {
		return fmt.Errorf("unknown scale %q", *scale)
	}

	for _, tk := range tasks {
		cfg := bench.TaskPreset(tk, sc)
		if *conf != "" {
			loaded, err := bench.LoadConfig(*conf, cfg)
			if err != nil {
				return err
			}
			cfg = loaded
		}
		cfg.Seed = *seed
		if *runs > 0 {
			cfg.Runs = *runs
		}
		if *steps > 0 {
			cfg.Steps = *steps
		}
		if *devices > 0 {
			cfg.Devices = *devices
		}
		if *edges > 0 {
			cfg.Edges = *edges
		}
		if *batch > 0 {
			cfg.BatchSize = *batch
		}
		if *lr > 0 {
			cfg.LearningRate = *lr
		}
		if *part > 0 {
			cfg.Participation = *part
		}
		if *tail > 0 {
			cfg.TailRatio = *tail
		}
		if *gtail >= 0 {
			cfg.GlobalTailRatio = *gtail
		}
		if *alpha > 0 {
			cfg.MACH.Alpha = *alpha
		}
		//machlint:allow floateq flag sentinel: exact zero means "not set on the command line"
		if *beta != 0 {
			cfg.MACH.Beta = *beta
		}
		if *target > 0 {
			cfg.TargetAccuracy = *target
		}
		if *epochs > 0 {
			cfg.LocalEpochs = *epochs
		}
		if *ndev >= 0 {
			cfg.NoisyDevices = *ndev
		}
		if *nlab >= 0 {
			cfg.NoisyLabels = *nlab
		}
		if *speed > 0 {
			cfg.MobilitySpeed = *speed
		}
		if *explore >= 0 {
			cfg.MACH.ExplorationCoef = *explore
		}
		if *disc > 0 {
			cfg.MACH.Discount = *disc
		}
		if *tg > 0 {
			cfg.CloudInterval = *tg
		}
		if *lane != "" {
			if _, err := hfl.ParseLane(*lane); err != nil {
				return err
			}
			cfg.Lane = *lane
		}
		switch *agg {
		case "":
		case "inverse":
			cfg.Aggregation = hfl.AggInverseUpdate
		case "plain":
			cfg.Aggregation = hfl.AggPlain
		case "literal":
			cfg.Aggregation = hfl.AggLiteralEq5
		default:
			return fmt.Errorf("unknown aggregation %q", *agg)
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return fmt.Errorf("create output dir: %w", err)
			}
			if err := bench.SaveConfig(cfg, filepath.Join(*outDir, fmt.Sprintf("config_%s.json", tk))); err != nil {
				return err
			}
			csvDir = *outDir
		}
		switch *exp {
		case "fig3":
			if err := runFig3(cfg); err != nil {
				return err
			}
		case "fig4":
			if err := runFig4(cfg); err != nil {
				return err
			}
		case "fig5":
			if err := runFig5(cfg); err != nil {
				return err
			}
		case "table1":
			if err := runTable1(cfg); err != nil {
				return err
			}
		case "ablations":
			if err := runAblations(cfg); err != nil {
				return err
			}
		case "all":
			for _, f := range []func(bench.Config) error{runFig3, runFig4, runFig5, runTable1} {
				if err := f(cfg); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("unknown experiment %q", *exp)
		}
	}
	return nil
}

func runFig3(cfg bench.Config) error {
	start := telemetry.WallNow()
	r, err := bench.RunFig3(cfg)
	if err != nil {
		return err
	}
	if err := bench.RenderFig3(os.Stdout, r); err != nil {
		return err
	}
	if err := exportCurves(fmt.Sprintf("fig3_%s", cfg.Task), r.Comparison); err != nil {
		return err
	}
	fmt.Printf("[fig3 %s done in %v]\n\n", cfg.Task, telemetry.WallSince(start).Round(time.Millisecond))
	return nil
}

func runFig4(cfg bench.Config) error {
	start := telemetry.WallNow()
	edges := []int{2, 5, 10}
	if cfg.Devices < 50 {
		edges = []int{2, 3, 5} // CI topology has fewer devices per edge
	}
	r, err := bench.RunEdgeSweep(cfg, edges)
	if err != nil {
		return err
	}
	if err := bench.RenderSweep(os.Stdout, r, "Figure 4"); err != nil {
		return err
	}
	fmt.Printf("[fig4 %s done in %v]\n\n", cfg.Task, telemetry.WallSince(start).Round(time.Millisecond))
	return nil
}

func runFig5(cfg bench.Config) error {
	start := telemetry.WallNow()
	r, err := bench.RunParticipationSweep(cfg, []float64{0.4, 0.5, 0.6, 0.7})
	if err != nil {
		return err
	}
	if err := bench.RenderSweep(os.Stdout, r, "Figure 5"); err != nil {
		return err
	}
	fmt.Printf("[fig5 %s done in %v]\n\n", cfg.Task, telemetry.WallSince(start).Round(time.Millisecond))
	return nil
}

func runAblations(cfg bench.Config) error {
	start := telemetry.WallNow()
	results, err := bench.RunAblations(cfg)
	if err != nil {
		return err
	}
	if err := bench.RenderAblations(os.Stdout, results); err != nil {
		return err
	}
	fmt.Printf("[ablations %s done in %v]\n\n", cfg.Task, telemetry.WallSince(start).Round(time.Millisecond))
	return nil
}

// runEngine measures the training engine itself (wall time per step,
// allocations, devices-trained/sec across worker-pool sizes) and writes
// BENCH_engine.json next to the binary or into -out.
func runEngine(outDir string, profiles *bench.ProfileMeta) error {
	start := telemetry.WallNow()
	r, err := bench.RunEngineBench(bench.EngineBenchPreset())
	if err != nil {
		return err
	}
	r.Profiles = profiles
	if err := bench.RenderEngineBench(os.Stdout, r); err != nil {
		return err
	}
	path := "BENCH_engine.json"
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
		path = filepath.Join(outDir, path)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	err = r.WriteEngineBenchJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("\n[engine bench done in %v — wrote %s]\n\n", telemetry.WallSince(start).Round(time.Millisecond), path)
	return nil
}

// runScale measures the sampling control plane at synthetic populations up
// to 1M devices × 10k edges (naive, indexed and sharded rows per cell) and
// writes BENCH_scale.json next to the binary or into -out. -quick swaps in
// the seconds-scale smoke preset; -shards overrides the preset's shard-count
// sweep.
func runScale(outDir string, quick bool, shards string, profiles *bench.ProfileMeta) error {
	start := telemetry.WallNow()
	preset := bench.ScaleBenchPreset()
	if quick {
		preset = bench.ScaleBenchQuickPreset()
	}
	if shards != "" {
		sweep, err := parseShardSweep(shards)
		if err != nil {
			return err
		}
		preset.Shards = sweep
	}
	r, err := bench.RunScaleBench(preset)
	if err != nil {
		return err
	}
	r.Profiles = profiles
	if err := bench.RenderScaleBench(os.Stdout, r); err != nil {
		return err
	}
	path := "BENCH_scale.json"
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
		path = filepath.Join(outDir, path)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	err = r.WriteScaleBenchJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("\n[scale bench done in %v — wrote %s]\n\n", telemetry.WallSince(start).Round(time.Millisecond), path)
	return nil
}

// parseShardSweep parses the -shards flag: comma-separated positive shard
// counts, e.g. "1,4,16".
func parseShardSweep(s string) ([]int, error) {
	var sweep []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -shards entry %q (want positive integers, e.g. 1,4,16)", part)
		}
		sweep = append(sweep, n)
	}
	return sweep, nil
}

// runComm measures the distributed stack's wire traffic per codec scheme
// (real bytes counted on every connection) and writes BENCH_comm.json next
// to the binary or into -out.
func runComm(outDir string, profiles *bench.ProfileMeta) error {
	start := telemetry.WallNow()
	r, err := bench.RunCommBench(bench.CommBenchPreset())
	if err != nil {
		return err
	}
	r.Profiles = profiles
	if err := bench.RenderCommBench(os.Stdout, r); err != nil {
		return err
	}
	path := "BENCH_comm.json"
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
		path = filepath.Join(outDir, path)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	err = r.WriteCommBenchJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("\n[comm bench done in %v — wrote %s]\n\n", telemetry.WallSince(start).Round(time.Millisecond), path)
	return nil
}

// runTelemetry measures the observability overhead (off vs metrics vs spans
// vs full trace vs a live /metrics scrape load) on the control-plane workload
// and writes BENCH_telemetry.json next to the binary or into -out. -quick
// swaps in the seconds-scale smoke preset.
func runTelemetry(outDir string, quick bool, profiles *bench.ProfileMeta) error {
	start := telemetry.WallNow()
	preset := bench.TelemetryBenchPreset()
	if quick {
		preset = bench.TelemetryBenchQuickPreset()
	}
	r, err := bench.RunTelemetryBench(preset)
	if err != nil {
		return err
	}
	r.Profiles = profiles
	if err := bench.RenderTelemetryBench(os.Stdout, r); err != nil {
		return err
	}
	path := "BENCH_telemetry.json"
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
		path = filepath.Join(outDir, path)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	err = r.WriteTelemetryBenchJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("\n[telemetry bench done in %v — wrote %s]\n\n", telemetry.WallSince(start).Round(time.Millisecond), path)
	return nil
}

func runTable1(cfg bench.Config) error {
	start := telemetry.WallNow()
	r, err := bench.RunTable1(cfg)
	if err != nil {
		return err
	}
	if err := bench.RenderTable1(os.Stdout, r); err != nil {
		return err
	}
	fmt.Printf("[table1 %s done in %v]\n\n", cfg.Task, telemetry.WallSince(start).Round(time.Millisecond))
	return nil
}
