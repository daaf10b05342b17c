package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// lastLine decodes the verdict line of a benchmark run.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the verdict: %v\n%s", err, out)
	}
	return r
}

// requireMetrics fails unless r reports exactly the registered metrics,
// each with its registered unit.
func requireMetrics(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d registered", len(r.Metrics), len(defs))
	}
}

// TestRegistryMatchesBenchmarkJSON ties the code's workloads and metrics to
// the BENCHMARK.json at the repository root, and checks every name.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	for _, set := range []struct {
		json, code []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		if len(set.json) != len(set.code) {
			t.Fatalf("BENCHMARK.json registers %d metrics, the code %d", len(set.json), len(set.code))
		}
		for i := range set.code {
			if set.json[i] != set.code[i] {
				t.Errorf("metric %d: BENCHMARK.json %+v, code %+v", i, set.json[i], set.code[i])
			}
		}
	}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.Name)
		}
	}
}

// smoke returns w shrunk to a single world, which runs twice.
func smoke(w *workload) *workload {
	small := *w
	small.worlds = 1
	return &small
}

// TestSmoke runs every workload untraced and traced at smoke size and
// requires a correct verdict carrying every registered metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		w := smoke(w)
		for trace, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
			var out bytes.Buffer
			var res *result
			if trace == 0 {
				res = measureWorkload(w, 3, time.Millisecond, &out)
			} else {
				res = traceWorkload(w, 3, time.Millisecond, &out)
			}
			if err := res.write(&out); err != nil {
				t.Fatal(err)
			}
			r := lastLine(t, out.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
				t.Errorf("%s trace=%d: verdict %+v\n%s", w.name, trace, r, out.String())
			}
			requireMetrics(t, r, defs)
			if trace == 1 && !strings.Contains(out.String(), "reconcile "+w.name) {
				t.Errorf("%s: no reconciliation row", w.name)
			}
		}
	}
}

// corrupting wraps an operation and flips one bit of the digest of every
// run after the first.
type corrupting struct {
	operation
	runs *int
}

func (c corrupting) run(tr *tracer) (opStats, error) {
	st, err := c.operation.run(tr)
	if *c.runs++; *c.runs > 1 {
		st.digest ^= 1
	}
	return st, err
}

// TestCorruptedDigestFailsGate checks the determinism gate: a run of a
// world whose digest differs from its first run must fail the verdict and
// the exit code.
func TestCorruptedDigestFailsGate(t *testing.T) {
	fed := lookupWorkload("fed-delta")
	runs := 0
	w := &workload{name: "corrupted", worlds: 1, setup: func(seed int64, world int, tr *tracer) (operation, error) {
		op, err := fed.setup(seed, world, tr)
		return corrupting{operation: op, runs: &runs}, err
	}}
	var out bytes.Buffer
	res := measureWorkload(w, 3, time.Millisecond, &out)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest passed the gate: %+v\n%s", res, out.String())
	}
	workloads = append(workloads, w)
	defer func() { workloads = workloads[:len(workloads)-1] }()
	runs = 0
	var runOut, errOut bytes.Buffer
	if code := run([]string{"-workload", "corrupted", "-seconds", "0.001"}, &runOut, &errOut); code == 0 {
		t.Fatalf("exit 0 on a corrupted digest\n%s", runOut.String())
	}
	if r := lastLine(t, runOut.String()); r.Correct {
		t.Fatalf("verdict reports correct on a corrupted digest: %+v", r)
	}
}
