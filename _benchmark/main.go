// Command machbench-e2e is the repository's end-to-end benchmark. It drives
// the shipped engine (hfl.Engine.Run) and the shipped loopback deployment
// (fed.Cloud.Run) on four named workloads and prints, as the last line of
// its standard output, one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics of endToEndMetrics,
// measured with tracing off. With -trace 1 they are the per-layer metrics of
// perLayerMetrics, taken from a traced run plus outside-in probes of each
// layer on the workload's own inputs. See README.md for why each workload
// exists and which end-to-end metric each layer metric should move.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash _benchmark/run.sh --workload control-plane --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/mach-fl/mach/internal/det"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code made explicit, for the test.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("machbench-e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	seed := fs.Int64("seed", 1, "seed every input of the workload derives from")
	seconds := fs.Float64("seconds", 20, "measurement time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "machbench-e2e: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), " | "))
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintln(stdout, stamp(w.name, *seed, *trace))
	var res *result
	if *trace == 1 {
		res = traceWorkload(w, *seed, budget, stdout)
	} else {
		res = measureWorkload(w, *seed, budget, stdout)
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintln(stderr, "machbench-e2e:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintln(stderr, "machbench-e2e: correctness check failed")
		return 1
	}
	return 0
}

// stamp is the provenance line every result carries: the seed argument and
// the core count, scheduler width, toolchain and revision it ran on.
func stamp(workload string, seed int64, trace int) string {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return fmt.Sprintf("# workload=%s seed=%d trace=%d num_cpu=%d gomaxprocs=%d go=%s vcs.revision=%s",
		workload, seed, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

// metricDef registers one metric: its name, unit, the direction that is
// better and, for end-to-end metrics, the share of the parent's median by
// which it may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are reported, untraced, on every workload. Timings may
// worsen by a quarter before a change counts as a regression: runs on a
// shared 2-CPU machine drift by ±10% from one minute to the next.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"step_ms_p50", "ms", "lower", 0.25},
	{"step_ms_p90", "ms", "lower", 0.25},
	{"devices_trained_per_s", "1/s", "higher", 0.25},
	{"decisions_per_s", "1/s", "higher", 0.25},
	{"final_accuracy", "ratio", "higher", 0.2},
	{"comm_bytes_per_step", "bytes", "lower", 0.15},
	{"live_heap_mib", "MiB", "lower", 0.25},
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string          // printed rows of unregistered metrics
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

// set records a registered metric; non-finite values are reported as 0.
func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("machbench-e2e: unregistered metric " + name)
}

// note records a metric that is printed but not registered.
func (r *result) note(name string, v float64, unit string) {
	r.notes = append(r.notes, fmt.Sprintf("%-34s %16.6g %s (printed only)", name, v, unit))
}

// fail records a failed operation and why.
func (r *result) fail(w io.Writer, format string, args ...any) {
	r.Failed++
	r.Correct = false
	fmt.Fprintf(w, "FAIL "+format+"\n", args...)
}

// write prints every metric as a readable row, then the verdict as the
// last line.
func (r *result) write(w io.Writer) error {
	for _, n := range det.SortedKeys(r.Metrics) {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-34s %16.6g ratio (%d of %d operations failed)\n", "error_rate", errRate, r.Failed, r.Attempted)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// liveHeap collects garbage and returns the bytes of live heap objects.
// The second collection empties the sync.Pool victim caches the first one
// only demotes (the codec's pooled compressors), which would otherwise
// count or not depending on when the last collection ran.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMiB reads the process's peak resident set (VmHWM). It is printed,
// not registered: when the collector runs decides it, so it is bimodal
// across otherwise identical runs.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				var kb float64
				if _, err := fmt.Sscan(f[1], &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
