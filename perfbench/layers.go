package main

import (
	"sort"

	"prochecker/internal/obs"
)

// spanTotal accumulates every span of one name in a run's tree.
type spanTotal struct {
	count  int
	durMS  float64
	selfMS float64
	durs   []float64
}

// spanTotals walks a span tree and sums, per span name, the duration
// and the self time: the duration minus the part of the span's interval
// its children cover. Children of one parent may overlap (the check
// worker pool runs properties side by side), so the covered part is the
// union of their intervals, not their sum.
func spanTotals(root *obs.SpanNode) map[string]*spanTotal {
	out := map[string]*spanTotal{}
	root.Walk(func(n *obs.SpanNode) {
		t := out[n.Name]
		if t == nil {
			t = &spanTotal{}
			out[n.Name] = t
		}
		t.count++
		t.durMS += n.DurMS
		t.selfMS += n.DurMS - coveredMS(n)
		t.durs = append(t.durs, n.DurMS)
	})
	return out
}

// coveredMS is the length of the union of n's children's intervals,
// clipped to n's own interval.
func coveredMS(n *obs.SpanNode) float64 {
	if len(n.Children) == 0 {
		return 0
	}
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(n.Children))
	end := n.StartMS + n.DurMS
	for _, c := range n.Children {
		lo, hi := max(c.StartMS, n.StartMS), min(c.StartMS+c.DurMS, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := 0.0
	curLo, curHi := 0.0, -1.0
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return covered
}

// counterNames are the registry counters a traced run reads.
var counterNames = []string{
	"conformance.cases", "conformance.faults_injected",
	"mc.vacuity_pruned", "equivalence.scenarios",
	"cegar.iterations", "cegar.refinements",
	"mc.explorations", "mc.graph_cache_hits", "mc.graph_cache_misses", "mc.states_explored",
	"jobs.cache_hits", "jobs.cache_misses",
	"wal.appends", "wal.syncs", "wal.bytes",
}

// counterValues reads the counters named in counterNames.
func counterValues(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		out[n] = reg.Counter(n).Value()
	}
	return out
}

// layerMetrics derives the per-layer metrics of one traced process from
// its span tree and registry. Counters are taken as the change since
// base and, like span times, divided by the number of units of work
// (check iterations or cold campaigns) the process ran.
func layerMetrics(o *obs.Observer, base map[string]int64, units int) map[string]float64 {
	m := o.Manifest()
	spans := spanTotals(m.Spans)
	reg := o.Metrics()
	u := float64(units)
	get := func(name string) *spanTotal {
		if t := spans[name]; t != nil {
			return t
		}
		return &spanTotal{}
	}
	cnt := counterValues(reg)
	delta := func(name string) float64 { return float64(cnt[name]-base[name]) / u }

	out := map[string]float64{
		"conformance.suite_ms":        get("conformance.suite").selfMS / u,
		"conformance.cases":           delta("conformance.cases"),
		"conformance.faults_injected": delta("conformance.faults_injected"),
		"extract.model_ms":            get("extract.model").selfMS / u,
		"extract.fsm_transitions":     float64(reg.Gauge("extract.fsm_transitions").Value()),
		"threat.compose_ms":           get("threat.compose").selfMS / u,
		"lint.model_ms":               get("lint.model").selfMS / u,
		"lint.diagnostics":            float64(reg.Gauge("lint.diagnostics").Value()),
		"report.vacuous":              delta("mc.vacuity_pruned"),
		"equivalence.scenarios":       delta("equivalence.scenarios"),
		"cegar.verify_ms":             get("cegar.verify").selfMS / u,
		"cegar.iterations":            delta("cegar.iterations"),
		"cegar.refinements":           delta("cegar.refinements"),
		"cegar.iteration_self_ms":     get("cegar.iteration").selfMS / u,
		"mc.explorations":             delta("mc.explorations"),
		"mc.graph_cache_hits":         delta("mc.graph_cache_hits"),
		"mc.states_explored":          delta("mc.states_explored"),
		"mc.explore_ms":               get("mc.explore").durMS / u,
		"mc.peak_state_bytes":         float64(reg.Gauge("mc.peak_resident_state_bytes").Value()),
		"cpv.validate_ms":             get("cpv.validate").durMS / u,
		"cpv.validations":             float64(get("cpv.validate").count) / u,
		"jobs.cache_hits":             delta("jobs.cache_hits"),
		"jobs.cache_misses":           delta("jobs.cache_misses"),
		"wal.appends":                 delta("wal.appends"),
		"wal.syncs":                   delta("wal.syncs"),
		"wal.bytes":                   delta("wal.bytes"),
	}
	hits, misses := delta("mc.graph_cache_hits"), delta("mc.graph_cache_misses")
	if hits+misses > 0 {
		out["mc.cache_hit_ratio"] = hits / (hits + misses)
	}
	if ms := out["mc.explore_ms"]; ms > 0 {
		out["mc.states_per_s"] = out["mc.states_explored"] / (ms / 1000)
	}
	// The blocking steps of a catalogue check are the model checker and
	// the CEGAR loop around it; their self times over the check's
	// worker-time say how much of check_s those two layers explain.
	if cat := get("check.catalogue"); cat.count > 0 {
		busy := get("mc.explore").durMS + get("cegar.iteration").selfMS + get("cegar.verify").selfMS + get("cpv.validate").durMS
		// The first catalogue span is the cold check; later ones are
		// answered from the verdict cache.
		out["check.mc_cegar_share_pct"] = 100 * busy / (workers * cat.durs[0] * u)
	}
	return out
}

// metricName is one emitted metric and its unit.
type metricName struct{ name, unit string }

// layerNames lists every per-layer metric and its unit, in report
// order. Metrics a workload does not exercise report 0.
var layerNames = []metricName{
	{"conformance.suite_ms", "ms"},
	{"conformance.cases", "count"},
	{"conformance.faults_injected", "count"},
	{"extract.model_ms", "ms"},
	{"extract.fsm_transitions", "count"},
	{"threat.compose_ms", "ms"},
	{"lint.model_ms", "ms"},
	{"lint.diagnostics", "count"},
	{"report.vacuous", "count"},
	{"report.property_ms.p50", "ms"},
	{"report.property_ms.p90", "ms"},
	{"equivalence.scenarios", "count"},
	{"cegar.verify_ms", "ms"},
	{"cegar.iterations", "count"},
	{"cegar.refinements", "count"},
	{"cegar.iteration_self_ms", "ms"},
	{"mc.explorations", "count"},
	{"mc.graph_cache_hits", "count"},
	{"mc.cache_hit_ratio", "ratio"},
	{"mc.states_explored", "count"},
	{"mc.explore_ms", "ms"},
	{"mc.states_per_s", "1/s"},
	{"mc.peak_state_bytes", "bytes"},
	{"cpv.validate_ms", "ms"},
	{"cpv.validations", "count"},
	{"jobs.queue_wait_ms.p50", "ms"},
	{"jobs.queue_wait_ms.p90", "ms"},
	{"jobs.run_ms.p50", "ms"},
	{"jobs.run_ms.p90", "ms"},
	{"jobs.cache_hits", "count"},
	{"jobs.cache_misses", "count"},
	{"wal.appends", "count"},
	{"wal.syncs", "count"},
	{"wal.bytes", "bytes"},
	{"server.submit_ms", "ms"},
	{"server.poll_ms.p50", "ms"},
	{"server.requests_per_campaign", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"check.mc_cegar_share_pct", "%"},
	{"trace.overhead_pct", "%"},
}
