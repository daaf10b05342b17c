package hfl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/mach-fl/mach/internal/sampling"
)

// paramHash is the FNV-64a hash of a parameter vector's IEEE-754 bit
// patterns, in order: any one-ulp difference anywhere changes it.
func paramHash(params []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range params {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestFinalParamsGolden pins every bit of the final global model for each
// execution path of the engine: both compute lanes under MACH (gradient
// norms feed back into sampling), upload failures, learning-rate decay, two
// shards and a multi-worker pool, plus MACH-P's probe path.
// The sampled-count goldens elsewhere would not notice a change that moves
// the parameters without flipping a sampling coin; these hashes do.
func TestFinalParamsGolden(t *testing.T) {
	cases := []struct {
		name  string
		lane  Lane
		probe bool
		want  uint64
	}{
		{"f64/unfused", LaneF64, false, 0x353d523a9c0f41dc},
		{"f32/unfused", LaneF32, false, 0x600416da6c6199c0},
		{"f64/machp", LaneF64, true, 0x37229b5d426ec107},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parts, test, sched := tinySetup(t, 12, 3, 12, 21)
			cfg := tinyConfig(12, 21)
			cfg.Workers = 3
			cfg.UploadFailureProb = 0.2
			cfg.LRDecay = 0.5
			cfg.Shards = 2
			cfg.EvalBatch = 100
			cfg.Lane = c.lane
			var strat sampling.Strategy
			var err error
			if c.probe {
				strat, err = sampling.NewMACHP(sampling.DefaultMACHConfig())
			} else {
				strat, err = sampling.NewMACH(12, sampling.DefaultMACHConfig())
			}
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(cfg, tinyArch, parts, test, sched, strat)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if got := paramHash(eng.GlobalParams()); got != c.want {
				t.Fatalf("final global parameter hash = %#x, want %#x", got, c.want)
			}
		})
	}
}
