package prochecker

import (
	"context"
	"regexp"
	"testing"

	"prochecker/internal/mc"
	"prochecker/internal/obs"
)

// coldEngine gives the test an empty process-wide graph cache: models
// are cached by fingerprint across analyses in one process, so without
// it what a run explores would depend on which tests ran before.
func coldEngine(t *testing.T) {
	t.Helper()
	prev := mc.DefaultEngine
	mc.DefaultEngine = mc.NewEngine()
	t.Cleanup(func() { mc.DefaultEngine = prev })
}

// TestCheckAllWithObserver is the observability acceptance test: a full
// catalogue run over a worker pool with an observer attached yields a
// manifest whose span tree covers every pipeline phase and whose
// registry carries the core metrics. Under -race it also hammers the
// registry and span tree from the evaluator's worker pool.
func TestCheckAllWithObserver(t *testing.T) {
	coldEngine(t)
	o := obs.New()
	a, err := AnalyzeContext(context.Background(), Conformant,
		WithWorkers(4), WithObserver(o))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.Observer() != o {
		t.Fatal("Observer() should return the attached observer")
	}
	results, err := a.CheckAll()
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}
	total := len(Properties())
	if len(results) != total {
		t.Fatalf("completed %d of %d properties", len(results), total)
	}

	m := o.Manifest()
	names := map[string]bool{}
	for _, n := range m.Spans.Names() {
		names[n] = true
	}
	for _, phase := range []string{
		"run", "analyze", "pipeline.build_model", "conformance.suite",
		"extract.model", "threat.compose", "check.catalogue",
		"property.evaluate", "cegar.verify", "cegar.iteration",
		"mc.explore", "equivalence.scenario",
	} {
		if !names[phase] {
			t.Errorf("manifest span tree missing phase %q (have %v)", phase, m.Spans.Names())
		}
	}

	counter := func(name string) int64 {
		v, _ := m.Metrics[name].(int64)
		return v
	}
	if got := counter("report.properties_checked"); got != int64(total) {
		t.Errorf("report.properties_checked = %d, want %d", got, total)
	}
	if counter("mc.states_explored") == 0 {
		t.Error("mc.states_explored not recorded")
	}
	if counter("mc.explorations") == 0 {
		t.Error("mc.explorations not recorded")
	}
	if counter("mc.graph_cache_hits")+counter("mc.graph_cache_misses") == 0 {
		t.Error("graph cache hit/miss counters not recorded")
	}
	if counter("cegar.iterations") == 0 {
		t.Error("cegar.iterations not recorded")
	}
	if counter("conformance.cases") == 0 {
		t.Error("conformance.cases not recorded")
	}
	hist, ok := m.Metrics["report.property_check_ms"].(obs.HistogramSnapshot)
	if !ok {
		t.Fatalf("report.property_check_ms missing or wrong type: %T", m.Metrics["report.property_check_ms"])
	}
	if hist.Count != int64(total) {
		t.Errorf("property latency histogram count = %d, want %d", hist.Count, total)
	}
	checks, ok := m.Metrics["mc.check_ms"].(obs.HistogramSnapshot)
	if !ok || checks.Count == 0 {
		t.Errorf("mc.check_ms histogram missing or empty: %+v", m.Metrics["mc.check_ms"])
	}

	// Per-property latency gauges exist for every catalogue entry.
	for _, p := range Properties() {
		if _, ok := m.Metrics[obs.LabeledStr("report.check_ms", "property", p.ID)]; !ok {
			t.Errorf("missing per-property latency gauge for %s", p.ID)
		}
	}
}

// TestCheckAllManifestNamesModels: the manifest of a srsLTE catalogue
// check shows which model every exploration covered and which checks the
// graph cache answered. srsLTE's 20 CEGAR refinements reach only 7
// distinct models, so a cold run explores exactly 7, each once. Only
// the unrefined model is explored from scratch: each refined model's
// graph is derived from a model explored before it ("derived_from").
func TestCheckAllManifestNamesModels(t *testing.T) {
	coldEngine(t)
	o := obs.New()
	a, err := AnalyzeContext(context.Background(), SRSLTE, WithWorkers(2), WithObserver(o))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if _, err := a.CheckAll(); err != nil {
		t.Fatalf("CheckAll: %v", err)
	}
	m := o.Manifest()
	short := regexp.MustCompile(`^[0-9a-f]{12}$`)
	explored := map[string]int{}
	ended := map[string]float64{} // model -> end of its exploration
	var derived []*obs.SpanNode
	hits, misses := 0, 0
	m.Spans.Walk(func(n *obs.SpanNode) {
		switch n.Name {
		case "mc.explore":
			if !short.MatchString(n.Attrs["model"]) {
				t.Errorf("mc.explore span model = %q, want 12 hex digits", n.Attrs["model"])
			}
			explored[n.Attrs["model"]]++
			ended[n.Attrs["model"]] = n.StartMS + n.DurMS
			if _, ok := n.Attrs["derived_from"]; ok {
				derived = append(derived, n)
			}
		case "cegar.iteration":
			if !short.MatchString(n.Attrs["model"]) {
				t.Errorf("cegar.iteration span model = %q, want 12 hex digits", n.Attrs["model"])
			}
			switch n.Attrs["cache"] {
			case "hit":
				hits++
			case "miss":
				misses++
			default:
				t.Errorf("cegar.iteration span cache = %q, want hit or miss", n.Attrs["cache"])
			}
		}
	})
	total := 0
	for model, n := range explored {
		total += n
		if n != 1 {
			t.Errorf("model %s explored %d times", model, n)
		}
	}
	if total != 7 || len(explored) != 7 {
		t.Errorf("%d mc.explore spans over %d distinct models, want 7 over 7", total, len(explored))
	}
	if fresh := total - len(derived); fresh != 1 {
		t.Errorf("%d mc.explore spans without derived_from, want 1", fresh)
	}
	for _, n := range derived {
		from := n.Attrs["derived_from"]
		end, ok := ended[from]
		switch {
		case !short.MatchString(from):
			t.Errorf("model %s: derived_from = %q, want 12 hex digits", n.Attrs["model"], from)
		case !ok:
			t.Errorf("model %s derived from %s, which the manifest never explored", n.Attrs["model"], from)
		case end > n.StartMS:
			t.Errorf("model %s derived from %s before that exploration ended", n.Attrs["model"], from)
		}
	}
	counter := func(name string) int64 {
		v, _ := m.Metrics[name].(int64)
		return v
	}
	if got := counter("mc.explorations"); got != int64(total) {
		t.Errorf("mc.explorations = %d, manifest has %d mc.explore spans", got, total)
	}
	if got := counter("mc.derived_graphs"); got != int64(len(derived)) {
		t.Errorf("mc.derived_graphs = %d, manifest has %d derived mc.explore spans", got, len(derived))
	}
	if got := counter("mc.graph_cache_misses"); got != int64(misses) {
		t.Errorf("mc.graph_cache_misses = %d, %d iterations report a miss", got, misses)
	}
	if got := counter("mc.graph_cache_hits"); got != int64(hits) {
		t.Errorf("mc.graph_cache_hits = %d, %d iterations report a hit", got, hits)
	}
}

// TestAnalyzeWithoutObserver guards the zero-cost-when-disabled
// contract at the API level: the default path carries no observer and
// still works end to end.
func TestAnalyzeWithoutObserver(t *testing.T) {
	a, err := Analyze(Conformant, WithObserver(nil))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.Observer() != nil {
		t.Fatal("Observer() should be nil when none was attached")
	}
	r, err := a.CheckProperty("S06")
	if err != nil {
		t.Fatalf("CheckProperty: %v", err)
	}
	if r.ID != "S06" {
		t.Fatalf("result = %+v", r)
	}
}
