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

// TestWarmLocalUpdateZeroAllocs: once a worker scratch and the plan slots
// hold their buffers, a local update — one device, or a fused edge of
// three — allocates nothing in either lane.
func TestWarmLocalUpdateZeroAllocs(t *testing.T) {
	for _, lane := range []Lane{LaneF64, LaneF32} {
		for _, count := range []int{1, 3} {
			parts, test, sched := tinySetup(t, 4, 2, 5, 3)
			cfg := tinyConfig(5, 3)
			cfg.Lane = lane
			eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
			if err != nil {
				t.Fatal(err)
			}
			devs := make([]plannedDevice, count)
			for i := range devs {
				devs[i] = plannedDevice{m: i, upload: true}
			}
			eng.trainDevices(devs, eng.edge[0])
			allocs := testing.AllocsPerRun(20, func() {
				eng.trainDevices(devs, eng.edge[0])
			})
			for i := range devs {
				if devs[i].err != nil {
					t.Fatal(devs[i].err)
				}
			}
			if allocs != 0 {
				t.Fatalf("%v lane, %d devices: warm local update allocates %v times", lane, count, allocs)
			}
		}
	}
}

// TestTrainingScratchBoundedByWorkers: the engine keeps one training
// scratch per concurrently running update at most — never one per device.
func TestTrainingScratchBoundedByWorkers(t *testing.T) {
	for _, fuse := range []bool{false, true} {
		parts, test, sched := tinySetup(t, 24, 3, 10, 5)
		cfg := tinyConfig(10, 5)
		cfg.Workers = 2
		cfg.FuseBatch = fuse
		eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalSampled == 0 {
			t.Fatal("no device trained")
		}
		if n := len(eng.scratchFree); n < 1 || n > cfg.Workers {
			t.Fatalf("fuse=%v: engine holds %d training scratches for %d workers", fuse, n, cfg.Workers)
		}
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
