package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"prochecker"
	"prochecker/internal/core/props"
	"prochecker/internal/mc"
	"prochecker/internal/obs"
)

// setupOnly is how many extra processes a run starts that only set up,
// so that setup_s is a median over enough cold samples even when only
// one or two full units fit the measuring time.
const setupOnly = 24

// cachedReps is how often a check process asks for the whole catalogue
// again after the cold check; every answer comes from the verdict cache.
// One answer takes about 2 ms, so the median of many is steady.
const cachedReps = 200

// setupResult is the output of a set-up-only child.
type setupResult struct {
	SetupMS float64 `json:"setup_ms"`
}

// checkResult is the output of one check child: one cold set-up and
// catalogue check in a fresh process.
type checkResult struct {
	SetupMS   float64            `json:"setup_ms"`
	CheckMS   float64            `json:"check_ms"`
	CachedMS  []float64          `json:"cached_ms"`
	CPUS      float64            `json:"cpu_s"`
	RSSMB     float64            `json:"rss_mb"`
	ItemMS    []float64          `json:"item_ms"`
	Attempted int                `json:"attempted"`
	Failures  []string           `json:"failures,omitempty"`
	Digest    string             `json:"digest"`
	Counters  map[string]int64   `json:"counters"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	PropMS    []float64          `json:"prop_ms,omitempty"`
}

// check drives a check workload: set-up-only processes, then one fresh
// process per catalogue check for as long as the measuring time allows.
// A traced run alternates untraced and traced checks; the untraced ones
// are the baseline the tracing overhead is measured against.
func (r *runner) check(impl prochecker.Implementation) (*outcome, error) {
	out := &outcome{}
	var setupMS []float64
	if !r.traced {
		var err error
		if setupMS, err = r.setupSamples(); err != nil {
			return nil, err
		}
	}

	var checkMS, cachedMS, itemMS, cpuS, rssMB, plainUnit, tracedUnit, propMS []float64
	var layers []map[string]float64
	units, lastMS := 0, 0.0
	for r.more(units, lastMS) || (r.traced && len(layers) == 0) {
		traced := r.traced && units%2 == 1
		var c checkResult
		wallMS, err := r.spawn(&c, "check", fmt.Sprintf("-traced=%v", traced))
		if err != nil {
			return nil, err
		}
		units++
		lastMS = wallMS
		out.attempted += c.Attempted
		out.failures = append(out.failures, c.Failures...)
		if err := out.agree(c.Digest, c.Counters, traced); err != nil {
			out.fail("check %d: %v", units, err)
		}
		if traced {
			tracedUnit = append(tracedUnit, c.SetupMS+c.CheckMS)
			layers = append(layers, c.Layers)
			propMS = append(propMS, c.PropMS...)
			continue
		}
		plainUnit = append(plainUnit, c.SetupMS+c.CheckMS)
		setupMS = append(setupMS, c.SetupMS)
		checkMS = append(checkMS, c.CheckMS)
		cachedMS = append(cachedMS, c.CachedMS...)
		itemMS = append(itemMS, c.ItemMS...)
		cpuS = append(cpuS, c.CPUS)
		rssMB = append(rssMB, c.RSSMB)
	}

	if r.traced {
		out.setLayers(layers, map[string][]float64{"report.property_ms": propMS}, plainUnit, tracedUnit)
		return out, nil
	}
	out.setTiming("setup_s", "s", scale(setupMS, 1e-3))
	out.setTiming("check_s", "s", scale(checkMS, 1e-3))
	out.setTiming("cached_ms", "ms", cachedMS)
	out.setP90("item_ms.p90", itemMS)
	out.setTiming("cpu_s", "s", cpuS)
	out.setTiming("peak_rss_mb", "MB", rssMB)
	return out, nil
}

// setupSamples starts setupOnly fresh processes that only set up and
// returns their set-up times in ms.
func (r *runner) setupSamples() ([]float64, error) {
	var out []float64
	for i := 0; i < setupOnly; i++ {
		var s setupResult
		if _, err := r.spawn(&s, "setup"); err != nil {
			return nil, err
		}
		out = append(out, s.SetupMS)
	}
	return out, nil
}

// setupChild is the set-up-only child: one cold AnalyzeContext.
func setupChild(ctx context.Context, impl prochecker.Implementation) (any, error) {
	start := time.Now()
	if _, err := prochecker.AnalyzeContext(ctx, impl, prochecker.WithWorkers(workers)); err != nil {
		return nil, err
	}
	return setupResult{SetupMS: msSince(start)}, nil
}

// checkChild sets up and checks the whole catalogue once, the same calls
// `prochecker -impl X -check all` makes, then checks every verdict.
// With traced set it attaches an observer, records its own spans around
// each call and derives the per-layer metrics from the result.
func checkChild(ctx context.Context, impl prochecker.Implementation, traced bool, traceID string) (any, error) {
	opts := []prochecker.Option{prochecker.WithWorkers(workers)}
	var o *obs.Observer
	var mem0 runtime.MemStats
	if traced {
		o = obs.New()
		o.Root().SetAttr("trace_id", traceID)
		ctx = obs.NewContext(ctx, o)
		opts = append(opts, prochecker.WithObserver(o))
		runtime.ReadMemStats(&mem0)
	}

	start := time.Now()
	sctx, span := obs.Start(ctx, "bench.setup")
	a, err := prochecker.AnalyzeContext(sctx, impl, opts...)
	span.EndErr(err)
	if err != nil {
		return nil, err
	}
	res := checkResult{SetupMS: msSince(start)}

	start = time.Now()
	cctx, span := obs.Start(ctx, "bench.check")
	results, err := a.CheckAllContext(cctx)
	span.EndErr(err)
	res.CheckMS = msSince(start)
	// The process's whole cost up to here: start-up, set-up and check,
	// before the cached answers and the collections that precede them.
	res.CPUS, res.RSSMB = selfUsage()
	if err != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("%s: CheckAll: %v", impl, err))
	}
	for _, p := range results {
		res.ItemMS = append(res.ItemMS, float64(p.Duration.Nanoseconds())/1e6)
	}
	// One collection first, so the cold check's garbage is not collected
	// during the first answers.
	runtime.GC()
	want := verdictDigest(results)
	for i := 0; i < cachedReps; i++ {
		start = time.Now()
		cctx, span := obs.Start(ctx, "bench.cached")
		again, err := a.CheckAllContext(cctx)
		span.EndErr(err)
		res.CachedMS = append(res.CachedMS, msSince(start))
		if err != nil || verdictDigest(again) != want {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: cached catalogue answer %d differs from the cold one (err %v)", impl, i, err))
		}
	}

	res.Attempted, res.Failures = judgeCatalogue(impl, results, res.Failures)
	res.Digest = verdictDigest(results)
	hits, misses, _ := mc.DefaultEngine.CacheCounters()
	res.Counters = map[string]int64{"mc.explorations": int64(misses), "mc.graph_cache_hits": int64(hits)}
	for _, p := range results {
		if p.Vacuous {
			res.Counters["report.vacuous"]++
		}
	}
	if traced {
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		res.Layers = layerMetrics(o, nil, 1)
		res.Layers["runtime.alloc_mb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
		res.Layers["runtime.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
		for _, t := range []string{"mc.states_explored", "cegar.refinements", "cegar.iterations"} {
			res.Counters[t] = int64(res.Layers[t])
		}
		if got := int64(res.Layers["mc.explorations"]); got != int64(misses) {
			res.Failures = append(res.Failures, fmt.Sprintf("registry counted %d explorations, the engine %d", got, misses))
		}
		res.PropMS = spanTotals(o.Manifest().Spans)["property.evaluate"].durs
		if err := writeTrace(traceID, o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// judgeCatalogue checks one catalogue run against the known answers:
// every property reached a definite verdict, and the Table I cells the
// expected file lists for this profile come out as the paper reports.
// It returns the number of checks made and the failures found.
func judgeCatalogue(impl prochecker.Implementation, results []prochecker.PropertyResult, failures []string) (int, []string) {
	byID := map[string]prochecker.PropertyResult{}
	for _, p := range results {
		byID[p.ID] = p
	}
	catalogue := props.Catalogue()
	attempted := len(catalogue)
	for _, p := range catalogue {
		r, ok := byID[p.ID]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("%s %s: no verdict", impl, p.ID))
		case r.Verified == r.AttackFound || strings.Contains(r.Detail, "inconclusive"):
			failures = append(failures, fmt.Sprintf("%s %s: no definite verdict (%s)", impl, p.ID, r.Detail))
		}
	}
	want, ok := expected.TableI[string(impl)]
	if !ok {
		return attempted, append(failures, fmt.Sprintf("%s: no Table I answers in expected.json", impl))
	}
	for _, attack := range sortedKeys(want) {
		attempted++
		got := false
		for _, p := range props.Detecting(attack) {
			got = got || byID[p.ID].AttackFound
		}
		if got != want[attack] {
			failures = append(failures, fmt.Sprintf("%s Table I %s: detected=%v, paper says %v", impl, attack, got, want[attack]))
		}
	}
	return attempted, failures
}

// verdictDigest fingerprints a catalogue run's verdicts.
func verdictDigest(results []prochecker.PropertyResult) string {
	h := sha256.New()
	for _, p := range results {
		fmt.Fprintf(h, "%s\x00%v\x00%v\x00%v\x00%s\n", p.ID, p.Verified, p.AttackFound, p.Vacuous, p.Detail)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
