package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/mach-fl/mach/internal/det"
	"github.com/mach-fl/mach/internal/sampling"
	"github.com/mach-fl/mach/internal/telemetry"
)

// tracer accumulates what the traced repetitions record: the program's own
// telemetry (phase histograms, span histograms and the span ring, read after
// every Run) and the in-situ timing of the MACH sampling calls.
type tracer struct {
	steps  int
	hists  map[string]histSum // span_* and edge_* from every sink; the rest from the first
	counts map[string]int64
	qDepth float64
	recon  recon
	probNS atomic.Int64 // MACH.ProbabilitiesInto, as the engine calls it
	probN  atomic.Int64
	obsNS  atomic.Int64 // MACH.ObserveBatch (ExperienceBook.ObserveMany)
	obsN   atomic.Int64
}

type histSum struct{ sum, count int64 }

func newTracer() *tracer {
	return &tracer{hists: map[string]histSum{}, counts: map[string]int64{}, recon: recon{parts: map[string]int64{}}}
}

// telemetry returns a fresh span-recording sink for one Run; nil when the
// repetition is untraced.
func (tr *tracer) telemetry() *telemetry.Telemetry {
	if tr == nil {
		return nil
	}
	t := telemetry.New()
	t.EnableSpans(true)
	return t
}

// wrap times a MACH strategy's sampling calls where the engine makes them.
// Embedding keeps every optional interface *sampling.MACH implements.
func (tr *tracer) wrap(s sampling.Strategy) sampling.Strategy {
	if m, ok := s.(*sampling.MACH); ok && tr != nil {
		return &tracedMACH{MACH: m, tr: tr}
	}
	return s
}

type tracedMACH struct {
	*sampling.MACH
	tr *tracer
}

func (t *tracedMACH) ProbabilitiesInto(ctx *sampling.EdgeContext, dst []float64) []float64 {
	start := telemetry.WallNow()
	out := t.MACH.ProbabilitiesInto(ctx, dst)
	t.tr.probNS.Add(telemetry.WallSince(start).Nanoseconds())
	t.tr.probN.Add(1)
	return out
}

func (t *tracedMACH) ObserveBatch(step int, edges, devices []int, norms [][]float64) {
	start := telemetry.WallNow()
	t.MACH.ObserveBatch(step, edges, devices, norms)
	t.tr.obsNS.Add(telemetry.WallSince(start).Nanoseconds())
	t.tr.obsN.Add(1)
}

// collect folds one traced Run's sinks into the tracer. The first sink is
// the coordinator's (engine or cloud); later ones (fed edges and hosts)
// contribute only span histograms, counters and spans.
func (tr *tracer) collect(steps int, sinks ...*telemetry.Telemetry) {
	if tr == nil {
		return
	}
	tr.steps += steps
	var spans [][]telemetry.SpanSnapshot
	for i, t := range sinks {
		snap := t.Snapshot()
		for name, h := range snap.Histograms {
			if i == 0 || strings.HasPrefix(name, "span_") || strings.HasPrefix(name, "edge_") {
				s := tr.hists[name]
				tr.hists[name] = histSum{s.sum + h.Sum, s.count + h.Count}
			}
		}
		for name, c := range snap.Counters {
			tr.counts[name] += c
		}
		if i == 0 {
			tr.qDepth = max(tr.qDepth, snap.Gauges["queue_depth"])
		}
		spans = append(spans, t.Spans())
	}
	tr.recon.add(spans)
}

// meanMS is a histogram's mean observation in milliseconds (0 if empty).
func (tr *tracer) meanMS(name string) float64 {
	h := tr.hists[name]
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count) / 1e6
}

// recon is the reconciliation of traced step wall time against the spans
// under each step: for every root step span, the union of each child kind's
// intervals (and, one level down, of each grandchild kind's, with the
// child's self time), plus the step's own self time — the gap no layer
// span covers. overlapNS is what parts sum to beyond the covered time when
// sibling kinds run concurrently.
type recon struct {
	steps     int
	stepNS    int64
	gapNS     int64
	overlapNS int64
	parts     map[string]int64
}

type interval struct{ lo, hi int64 }

// unionNS is the length of the union of spans' intervals clipped to [lo, hi).
func unionNS(spans []telemetry.SpanSnapshot, lo, hi int64) int64 {
	iv := make([]interval, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.StartNS, lo), min(s.StartNS+s.DurNS, hi)
		if b > a {
			iv = append(iv, interval{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		default:
			curHi = max(curHi, v.hi)
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

func byKind(spans []telemetry.SpanSnapshot) map[string][]telemetry.SpanSnapshot {
	m := map[string][]telemetry.SpanSnapshot{}
	for _, s := range spans {
		m[s.Kind] = append(m[s.Kind], s)
	}
	return m
}

// spanRingCap is how many of the newest spans a telemetry sink retains.
const spanRingCap = 2048

// add reconciles the steps of one Run from the spans of each of its sinks.
// A sink whose ring wrapped kept every span that ended after its oldest
// one; only steps starting later than that have all their children.
func (r *recon) add(sinks [][]telemetry.SpanSnapshot) {
	var spans []telemetry.SpanSnapshot
	var cutoff int64
	for _, ss := range sinks {
		if len(ss) >= spanRingCap {
			cutoff = max(cutoff, ss[0].StartNS+ss[0].DurNS)
		}
		spans = append(spans, ss...)
	}
	children := map[uint64][]telemetry.SpanSnapshot{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.Kind != "step" || s.Parent != 0 || s.StartNS <= cutoff {
			continue
		}
		lo, hi := s.StartNS, s.StartNS+s.DurNS
		kids := children[s.ID]
		covered := unionNS(kids, lo, hi)
		r.steps++
		r.stepNS += s.DurNS
		r.gapNS += s.DurNS - covered
		var partsNS int64
		kinds := byKind(kids)
		for _, kind := range det.SortedKeys(kinds) {
			group := kinds[kind]
			var grand []telemetry.SpanSnapshot
			for _, g := range group {
				grand = append(grand, children[g.ID]...)
			}
			u := unionNS(group, lo, hi)
			if len(grand) == 0 {
				r.parts[kind] += u
				partsNS += u
				continue
			}
			self := u - unionNS(grand, lo, hi)
			r.parts[kind+"/self"] += self
			partsNS += self
			grandKinds := byKind(grand)
			for _, gk := range det.SortedKeys(grandKinds) {
				gu := unionNS(grandKinds[gk], lo, hi)
				r.parts[kind+"/"+gk] += gu
				partsNS += gu
			}
		}
		r.overlapNS += partsNS - covered
	}
}

// write prints the reconciliation row: per-step step wall time = Σ parts +
// gap − overlap, every term in milliseconds per step.
func (r *recon) write(w io.Writer, workload string) {
	if r.steps == 0 {
		fmt.Fprintf(w, "reconcile %s: no complete step spans recorded\n", workload)
		return
	}
	per := func(ns int64) float64 { return float64(ns) / float64(r.steps) / 1e6 }
	var b strings.Builder
	for _, k := range det.SortedKeys(r.parts) {
		fmt.Fprintf(&b, " + %s %.4f", k, per(r.parts[k]))
	}
	fmt.Fprintf(w, "reconcile %s (%d steps, ms/step): step %.4f =%s + gap %.4f - overlap %.4f; gap is %.2f%% of step\n",
		workload, r.steps, per(r.stepNS), strings.TrimPrefix(b.String(), " +"), per(r.gapNS), per(r.overlapNS),
		100*float64(r.gapNS)/float64(r.stepNS))
}
