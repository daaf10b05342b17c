package hfl

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/mach-fl/mach/internal/nn"
	"github.com/mach-fl/mach/internal/sampling"
)

// TestNewRejectsDropout: devices train on shared worker networks, and a
// Dropout layer's RNG would carry its masks from one device to the next in
// scheduling order, so New refuses the architecture up front.
func TestNewRejectsDropout(t *testing.T) {
	parts, test, sched := tinySetup(t, 4, 2, 5, 3)
	arch := func(rng *rand.Rand) (*nn.Network, error) {
		return nn.NewNetwork("dropout",
			nn.NewFlatten("flat"),
			nn.NewDense("fc", 16, 10, rng),
			nn.NewDropout("drop", 0.5, rng),
		), nil
	}
	_, err := New(tinyConfig(5, 3), arch, parts, test, sched, sampling.NewUniform())
	if err == nil || !strings.Contains(err.Error(), "dropout") {
		t.Fatalf("New with a Dropout layer: err = %v, want a dropout rejection", err)
	}
}

// TestExecChunksSplit pins the execution-chunk rule: min(n,
// chunksPerWorker·Workers) contiguous chunks whose sizes differ by at most
// one, covering every sampled device once and in order.
func TestExecChunksSplit(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, workers := range []int{1, 2, 3} {
			k := execChunks(n, workers)
			if want := min(n, chunksPerWorker*workers); k != want {
				t.Fatalf("n=%d workers=%d: %d chunks, want %d", n, workers, k, want)
			}
			next, minSize, maxSize := 0, n, 0
			for c := 0; c < k; c++ {
				lo, hi := rangeLo(n, k, c), rangeLo(n, k, c+1)
				if lo != next {
					t.Fatalf("n=%d workers=%d: chunk %d starts at %d, want %d", n, workers, c, lo, next)
				}
				minSize, maxSize = min(minSize, hi-lo), max(maxSize, hi-lo)
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d workers=%d: chunks cover [0, %d)", n, workers, next)
			}
			if k > 0 && (minSize < 1 || maxSize-minSize > 1) {
				t.Fatalf("n=%d workers=%d: chunk sizes span [%d, %d]", n, workers, minSize, maxSize)
			}
		}
	}
}

// TestWarmLocalUpdateZeroAllocs: once a worker scratch and the plan slots
// hold their buffers, an execution chunk spanning two edges allocates
// nothing in either lane.
func TestWarmLocalUpdateZeroAllocs(t *testing.T) {
	for _, lane := range []Lane{LaneF64, LaneF32} {
		parts, test, sched := tinySetup(t, 4, 2, 5, 3)
		cfg := tinyConfig(5, 3)
		cfg.Lane = lane
		eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
		if err != nil {
			t.Fatal(err)
		}
		var items []execItem
		for n := 0; n < 2; n++ {
			for i := 0; i < 2; i++ {
				eng.plans[n].devs = append(eng.plans[n].devs, plannedDevice{m: 2*n + i, upload: i == 0})
				items = append(items, execItem{n, i})
			}
		}
		eng.trainChunk(items)
		allocs := testing.AllocsPerRun(20, func() {
			eng.trainChunk(items)
		})
		for _, it := range items {
			if err := eng.plans[it.n].devs[it.i].err; err != nil {
				t.Fatal(err)
			}
		}
		if allocs != 0 {
			t.Fatalf("%v lane: warm execution chunk allocates %v times", lane, allocs)
		}
	}
}

// TestTrainingScratchBoundedByWorkers: the engine keeps one training
// scratch per concurrently running chunk at most — never one per device —
// also when devices share chunks.
func TestTrainingScratchBoundedByWorkers(t *testing.T) {
	parts, test, sched := tinySetup(t, 160, 3, 10, 5)
	cfg := tinyConfig(10, 5)
	cfg.Workers = 2
	cfg.Participation = 1
	eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	chunked := false
	for _, n := range res.SampledPerStep {
		chunked = chunked || n > chunksPerWorker*cfg.Workers
	}
	if !chunked {
		t.Fatalf("no step sampled more than %d devices: %v", chunksPerWorker*cfg.Workers, res.SampledPerStep)
	}
	if n := len(eng.scratchFree); n < 1 || n > cfg.Workers {
		t.Fatalf("engine holds %d training scratches for %d workers", n, cfg.Workers)
	}
}

// TestWarmProbeZeroAllocs: MACH-P's gradient probe runs on its shard's
// reusable scratch, so a warm probe allocates nothing.
func TestWarmProbeZeroAllocs(t *testing.T) {
	parts, test, sched := tinySetup(t, 4, 2, 5, 3)
	eng, err := New(tinyConfig(5, 3), tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	first := eng.probeGradNorm(0, 0, 1)
	allocs := testing.AllocsPerRun(20, func() {
		if got := eng.probeGradNorm(0, 0, 1); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("probe of the same (step, device) moved: %v then %v", first, got)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm probe allocates %v times", allocs)
	}
}
