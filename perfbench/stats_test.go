package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"prochecker/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Summarize must sort
	}
	return xs
}

func TestSummarize(t *testing.T) {
	cases := []struct {
		n             int
		median        float64
		tail, tailVal float64
	}{
		{n: 1, median: 1},
		{n: 19, median: 10}, // 9.5 beyond p50: no tail
		{n: 20, median: 10.5, tail: 50, tailVal: 10.5},  // exactly 10 beyond p50
		{n: 100, median: 50.5, tail: 90, tailVal: 90.1}, // 10 beyond p90, 5 beyond p95
		{n: 1000, median: 500.5, tail: 99, tailVal: 990.01},
	}
	for _, c := range cases {
		s := Summarize(seq(c.n))
		if s.N != c.n || !near(s.Median, c.median) || s.Tail != c.tail || !near(s.TailValue, c.tailVal) {
			t.Errorf("Summarize(1..%d) = %+v, want median %g tail p%g=%g", c.n, s, c.median, c.tail, c.tailVal)
		}
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {90, 3.7}, {100, 4}} {
		if got := Percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("Percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("Percentile reordered its input")
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestSelfTime: a parent's self time excludes the union of its
// children's intervals, so overlapping children are not counted twice.
func TestSelfTime(t *testing.T) {
	root := &obs.SpanNode{Name: "check", StartMS: 0, DurMS: 100, Children: []*obs.SpanNode{
		{Name: "prop", StartMS: 10, DurMS: 40},
		{Name: "prop", StartMS: 30, DurMS: 40}, // overlaps the first: union 10..70
		{Name: "prop", StartMS: 90, DurMS: 30}, // runs past the parent: clipped to 90..100
	}}
	tot := spanTotals(root)
	if got := tot["check"].selfMS; !near(got, 30) {
		t.Errorf("check self = %g ms, want 30", got)
	}
	if p := tot["prop"]; p.count != 3 || !near(p.durMS, 110) || !near(p.selfMS, 110) {
		t.Errorf("prop totals = %+v, want 3 spans, 110 ms", p)
	}
}

// benchmarkFile is the part of BENCHMARK.json the schema test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSchemaMatchesBenchmarkJSON: the workloads and the metric names and
// units the benchmark emits are exactly those BENCHMARK.json declares.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := sortedKeys(workloads); !equal(got, declared) {
		t.Errorf("workloads = %v, BENCHMARK.json declares %v", got, declared)
	}
	check := func(kind string, emitted []metricName, declared []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, m := range declared {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for _, m := range emitted {
			got[m.name] = m.unit
		}
		for name, unit := range got {
			if want[name] != unit {
				t.Errorf("%s metric %s [%s] emitted, BENCHMARK.json has [%s]", kind, name, unit, want[name])
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s metric %s declared in BENCHMARK.json but not emitted", kind, name)
			}
		}
	}
	check("end_to_end", endToEndNames, bf.EndToEnd)
	check("per_layer", layerNames, bf.PerLayer)
}

// TestExpectedAnswers: the known-answer file names every profile the
// workloads check and every campaign property.
func TestExpectedAnswers(t *testing.T) {
	for name, w := range workloads {
		if w.campaign {
			continue
		}
		if len(expected.TableI[string(w.impl)]) != 9 {
			t.Errorf("%s: expected.json has %d Table I cells, want P1-P3 and I1-I6", name, len(expected.TableI[string(w.impl)]))
		}
	}
	for _, impl := range campaignImpls {
		for _, id := range campaignProps {
			if v := expected.Campaign[impl][id]; v != "attack" && v != "verified" {
				t.Errorf("expected.json campaign %s %s = %q", impl, id, v)
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
