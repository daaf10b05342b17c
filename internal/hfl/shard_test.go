package hfl

import (
	"bytes"
	"strings"
	"testing"

	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
)

// shardStrategies are the strategy constructors the sharding contract is
// checked against: uniform (no observer), MACH (BatchObserver fast path) and
// MACH-P (probe path, no observer).
func shardStrategies(devices int) map[string]func(t *testing.T) sampling.Strategy {
	return map[string]func(t *testing.T) sampling.Strategy{
		"uniform": func(*testing.T) sampling.Strategy { return sampling.NewUniform() },
		"mach": func(t *testing.T) sampling.Strategy {
			s, err := sampling.NewMACH(devices, sampling.DefaultMACHConfig())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"machp": func(t *testing.T) sampling.Strategy {
			s, err := sampling.NewMACHP(sampling.DefaultMACHConfig())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

// runSharded executes one seeded run with the given shard count over a
// 5-edge schedule and returns everything that must be invariant across
// shard counts.
func runSharded(t *testing.T, strategy func(t *testing.T) sampling.Strategy, shards int) (*Result, []float64) {
	t.Helper()
	parts, test, sched := tinySetup(t, 12, 5, 12, 21)
	cfg := tinyConfig(12, 21)
	cfg.Workers = 3
	cfg.Shards = shards
	cfg.UploadFailureProb = 0.2
	cfg.EvalBatch = 100
	eng, err := New(cfg, tinyArch, parts, test, sched, strategy(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.GlobalParams()
}

// requireIdenticalRuns fails unless two runs agree bitwise on every
// shard-count-invariant output.
func requireIdenticalRuns(t *testing.T, label string, res, refRes *Result, params, refParams []float64) {
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
	for j, v := range refParams {
		if params[j] != v {
			t.Fatalf("%s: global param %d = %v, want %v", label, j, params[j], v)
		}
	}
}

// TestRunBitIdenticalAcrossShardCounts is the sharding determinism contract
// (DESIGN.md §11): sampled counts, training history (accuracy AND loss,
// bitwise), communication totals and final global parameters must not
// depend on Config.Shards. The 5-edge schedule is deliberately not
// divisible by any tested shard count, so shard ranges are uneven; 7 > 5
// exercises the clamp to one group per shard.
func TestRunBitIdenticalAcrossShardCounts(t *testing.T) {
	for name, mk := range shardStrategies(12) {
		t.Run(name, func(t *testing.T) {
			refRes, refParams := runSharded(t, mk, 1)
			for _, shards := range []int{2, 3, 7} {
				res, params := runSharded(t, mk, shards)
				requireIdenticalRuns(t, name, res, refRes, params, refParams)
			}
		})
	}
}

// TestShardedMatchesSeedEngineGolden pins sharded runs to the same golden
// trace as TestRunRegressionFixedSeed: the pre-index serial engine's exact
// sampled-per-step sequence (commit 040083d) must survive any shard count,
// not just equality between sharded runs.
func TestShardedMatchesSeedEngineGolden(t *testing.T) {
	wantSampled := []int{7, 4, 6, 5, 6, 6, 9, 3, 4, 6, 6, 5}
	for _, shards := range []int{2, 3} {
		parts, test, sched := tinySetup(t, 12, 3, 12, 21)
		cfg := tinyConfig(12, 21)
		cfg.Workers = 3
		cfg.Shards = shards
		cfg.UploadFailureProb = 0.2
		cfg.EvalBatch = 100
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
		for i, want := range wantSampled {
			if res.SampledPerStep[i] != want {
				t.Fatalf("shards=%d: step %d sampled %d devices, want %d (full trace %v)",
					shards, i, res.SampledPerStep[i], want, res.SampledPerStep)
			}
		}
	}
}

// TestShardLayout checks the canonical shard geometry: ranges are contiguous,
// cover every edge exactly once, align to cloud-reduce group boundaries, and
// the configured count clamps to the group count.
func TestShardLayout(t *testing.T) {
	parts, test, sched := tinySetup(t, 12, 5, 12, 21)
	for _, tc := range []struct{ configured, want int }{
		{0, 1}, {1, 1}, {2, 2}, {5, 5}, {99, 5},
	} {
		cfg := tinyConfig(12, 21)
		cfg.Shards = tc.configured
		strat := sampling.NewUniform()
		eng, err := New(cfg, tinyArch, parts, test, sched, strat)
		if err != nil {
			t.Fatal(err)
		}
		if len(eng.shards) != tc.want {
			t.Fatalf("Shards=%d: %d shards, want %d", tc.configured, len(eng.shards), tc.want)
		}
		next := 0
		for i, s := range eng.shards {
			if s.lo != next {
				t.Fatalf("Shards=%d: shard %d starts at edge %d, want %d", tc.configured, i, s.lo, next)
			}
			if s.hi <= s.lo {
				t.Fatalf("Shards=%d: shard %d owns empty range [%d,%d)", tc.configured, i, s.lo, s.hi)
			}
			if got := rangeLo(sched.Edges, eng.groups, s.gLo); got != s.lo {
				t.Fatalf("Shards=%d: shard %d range not group-aligned: lo %d vs group lo %d", tc.configured, i, s.lo, got)
			}
			for n := s.lo; n < s.hi; n++ {
				if eng.edgeShard[n] != i {
					t.Fatalf("Shards=%d: edgeShard[%d] = %d, want %d", tc.configured, n, eng.edgeShard[n], i)
				}
			}
			next = s.hi
		}
		if next != sched.Edges {
			t.Fatalf("Shards=%d: shards cover %d edges, want %d", tc.configured, next, sched.Edges)
		}
	}
}

// TestCheckpointRestoreAcrossShardCounts covers resharding at a checkpoint
// boundary: a run checkpointed under one shard count and resumed under
// another must continue exactly like a same-shard-count resume, because the
// checkpoint carries only the global model and the shard layout never
// reaches a value.
func TestCheckpointRestoreAcrossShardCounts(t *testing.T) {
	parts, test, sched := tinySetup(t, 12, 5, 12, 21)
	cfg := tinyConfig(6, 21)
	cfg.Workers = 3
	cfg.Shards = 2
	eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := eng.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	resume := func(shards int) (*Result, []float64) {
		cfg := tinyConfig(6, 77) // fresh stream: the resumed leg, not a replay
		cfg.Workers = 3
		cfg.Shards = shards
		eng, err := New(cfg, tinyArch, parts, test, sched, sampling.NewUniform())
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.GlobalParams()
	}

	refRes, refParams := resume(1)
	for _, shards := range []int{2, 3} {
		res, params := resume(shards)
		requireIdenticalRuns(t, "resume", res, refRes, params, refParams)
	}
}

// TestShardedTelemetryDoesNotPerturbRun is the observational-purity golden
// for the sharded plane: attaching telemetry (with a trace) to a multi-shard
// run must not change a single bit of its outputs, and the snapshot must
// carry one per-shard section per shard.
func TestShardedTelemetryDoesNotPerturbRun(t *testing.T) {
	run := func(tel *telemetry.Telemetry) (*Result, []float64) {
		parts, test, sched := tinySetup(t, 12, 5, 12, 21)
		cfg := tinyConfig(12, 21)
		cfg.Workers = 3
		cfg.Shards = 3
		strat, err := sampling.NewMACH(12, sampling.DefaultMACHConfig())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(cfg, tinyArch, parts, test, sched, strat)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetTelemetry(tel)
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.GlobalParams()
	}

	refRes, refParams := run(nil)
	var traceBuf bytes.Buffer
	tel := telemetry.New()
	tel.SetTrace(telemetry.NewTrace(&traceBuf, telemetry.TraceConfig{}))
	tel.EnableSpans(true)
	res, params := run(tel)
	requireIdenticalRuns(t, "telemetry-on", res, refRes, params, refParams)

	// A second traced run, spans off, must produce the byte-identical trace:
	// span recording is purely additive.
	var traceBuf2 bytes.Buffer
	tel2 := telemetry.New()
	tel2.SetTrace(telemetry.NewTrace(&traceBuf2, telemetry.TraceConfig{}))
	res2, params2 := run(tel2)
	requireIdenticalRuns(t, "spans-off", res2, refRes, params2, refParams)

	snap := tel.Snapshot()
	if len(snap.Shards) != 3 {
		t.Fatalf("snapshot has %d shard sections, want 3", len(snap.Shards))
	}
	for i, sh := range snap.Shards {
		if sh.Shard != i {
			t.Fatalf("shard section %d labelled %d", i, sh.Shard)
		}
		for _, phase := range []string{"decide", "train", "finalize"} {
			h, ok := sh.Phases[phase]
			if !ok || h.Count == 0 {
				t.Fatalf("shard %d: phase %q has no observations", i, phase)
			}
		}
	}
	// Spans-on recorded the engine span kinds with matching step cadence.
	for _, kind := range []string{"span_step_ns", "span_decide_ns", "span_train_ns", "span_finalize_ns", "span_shard_cmd_ns", "span_cloud_reduce_ns"} {
		if h := snap.Histograms[kind]; h.Count == 0 {
			t.Fatalf("spans enabled but %s has no observations", kind)
		}
	}
	if got, steps := snap.Histograms["span_step_ns"].Count, snap.Counters["steps"]; got != steps {
		t.Fatalf("span_step_ns count = %d, want one per step (%d)", got, steps)
	}
	if len(tel.Spans()) == 0 {
		t.Fatal("span ring is empty after a spans-on run")
	}
	if err := tel.Trace().Close(); err != nil {
		t.Fatal(err)
	}
	if err := tel2.Trace().Close(); err != nil {
		t.Fatal(err)
	}
	if traceBuf.Len() == 0 {
		t.Fatal("trace produced no events")
	}
	// Phase events carry measured durations, which legitimately differ
	// between runs; every other event — decisions above all — must be
	// byte-identical whether or not spans were recorded.
	if a, b := dropPhaseEvents(traceBuf.String()), dropPhaseEvents(traceBuf2.String()); a != b {
		t.Fatalf("decision trace differs between spans-on and spans-off runs:\n%s\nvs\n%s", a, b)
	}
}

// dropPhaseEvents removes phase-event lines from a JSONL trace, keeping
// run/decision/eval/estimator/done events verbatim.
func dropPhaseEvents(trace string) string {
	var b strings.Builder
	for _, line := range strings.Split(trace, "\n") {
		if strings.HasPrefix(line, `{"type":"phase"`) {
			continue
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
