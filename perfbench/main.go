// Command perfbench is the repository's end-to-end benchmark. It runs
// the product path — prochecker.AnalyzeContext then CheckAllContext on
// one profile, or a campaign through the jobs service behind the HTTP
// server — checks every verdict against known answers, and prints one
// JSON result line.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload check-srsLTE --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no observer attached. With --trace 1 an observer is attached and
// the result carries the per-layer metrics derived from the program's
// span tree and registry, plus the tracing overhead. Every measured
// unit of work runs in a fresh child process of this binary, so no
// cached graph or heap carries over between units.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"prochecker"
)

// buildDir holds everything a run leaves behind, relative to the
// repository root the benchmark runs from.
const buildDir = ".bench_build"

// hardLimit bounds a whole run; a run that cannot finish in it fails
// instead of overrunning the caller's timeout.
const hardLimit = 170 * time.Second

// workers is the analysis parallelism of the check workloads and the
// number of concurrent jobs of the campaign service: at most two threads
// of analysis work at any time.
const workers = 2

// workload is one benchmark input mix.
type workload struct {
	impl     prochecker.Implementation // check workloads
	campaign bool
}

var workloads = map[string]workload{
	"check-srsLTE":   {impl: prochecker.SRSLTE},
	"campaign-light": {campaign: true},
}

// endToEndNames lists every end-to-end metric. Each workload measures
// all of them on its own unit of work: a catalogue check on the check
// workloads, a cold campaign on campaign-light (see README.md).
var endToEndNames = []metricName{
	{"setup_s", "s"},
	{"check_s", "s"},
	{"cached_ms", "ms"},
	{"item_ms.p90", "ms"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload driver hands back to main: metrics, the
// tally of checked outputs and the exact counters that must repeat.
type outcome struct {
	metrics   map[string]metric
	summaries map[string]Summary
	attempted int
	failures  []string
	digest    string
	counters  map[string]int64
	byMode    map[bool]map[string]int64
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// emits checks that the outcome carries exactly the given metrics.
func (o *outcome) emits(names []metricName) error {
	if len(o.metrics) != len(names) {
		return fmt.Errorf("emitted %d metrics, want %d", len(o.metrics), len(names))
	}
	for _, n := range names {
		if m, ok := o.metrics[n.name]; !ok || m.Unit != n.unit {
			return fmt.Errorf("metric %s [%s] missing or with another unit", n.name, n.unit)
		}
	}
	return nil
}

// setTiming records a timing metric as its median and keeps the full
// summary for the report.
func (o *outcome) setTiming(name, unit string, samples []float64) {
	s := Summarize(samples)
	o.set(name, unit, s.Median)
	if o.summaries == nil {
		o.summaries = map[string]Summary{}
	}
	o.summaries[name] = s
}

// agree checks that a unit's verdict digest matches the run's first
// unit and that its exact counters repeat those of the first unit of
// the same trace mode; the counters of the run's own mode are the ones
// its result set compares across runs.
func (o *outcome) agree(digest string, counters map[string]int64, traced bool) error {
	if o.digest == "" {
		o.digest = digest
	} else if digest != o.digest {
		return fmt.Errorf("verdict digest %s differs from the run's first %s", digest, o.digest)
	}
	if o.byMode == nil {
		o.byMode = map[bool]map[string]int64{}
	}
	first, seen := o.byMode[traced]
	if !seen {
		o.byMode[traced] = counters
		return nil
	}
	for _, k := range sortedKeys(first) {
		if counters[k] != first[k] {
			return fmt.Errorf("counter %s = %d, the run's first unit had %d", k, counters[k], first[k])
		}
	}
	return nil
}

// setP90 records the 90th percentile of a latency sample, warning when
// the run was too short to leave minBeyond samples beyond it.
func (o *outcome) setP90(name string, xs []float64) {
	o.setTiming(name, "ms", xs)
	o.set(name, "ms", Percentile(xs, 90))
	if float64(len(xs))*0.1 < minBeyond {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d samples leave fewer than %d beyond p90\n", name, len(xs), minBeyond)
	}
}

// setLayers reports the per-layer metrics of a traced run: each the
// median over the traced units, pooled latency samples as p50/p90, and
// the tracing overhead as the traced unit time over the untraced one.
func (o *outcome) setLayers(units []map[string]float64, pooled map[string][]float64, plainMS, tracedMS []float64) {
	values := map[string]float64{}
	for _, l := range layerNames {
		var xs []float64
		for _, u := range units {
			xs = append(xs, u[l.name])
		}
		values[l.name] = Median(xs)
	}
	for name, xs := range pooled {
		values[name+".p50"] = Percentile(xs, 50)
		values[name+".p90"] = Percentile(xs, 90)
	}
	if plain := Median(plainMS); plain > 0 {
		values["trace.overhead_pct"] = 100 * (Median(tracedMS) - plain) / plain
	}
	for _, l := range layerNames {
		o.set(l.name, l.unit, values[l.name])
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(parentMain(os.Args[1:]))
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "check-srsLTE | campaign-light")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measuring time")
	trace := fs.Int("trace", 0, "1 attaches an observer and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()

	steal0, total0 := cpuTicks()
	env, err := collectEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	r := runner{
		ctx:      ctx,
		name:     *name,
		seed:     *seed,
		traced:   *trace == 1,
		traceID:  fmt.Sprintf("%s-s%d-%d-%d", *name, *seed, os.Getpid(), time.Now().UnixNano()),
		deadline: time.Now().Add(time.Duration(*seconds) * time.Second),
		slack:    time.Duration(*seconds) * time.Second / 10,
	}
	var out *outcome
	if w.campaign {
		out, err = r.campaign()
	} else {
		out, err = r.check(w.impl)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	names := endToEndNames
	if r.traced {
		names = layerNames
	}
	if err := out.emits(names); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out.counters = out.byMode[r.traced]
	if err := checkSet(env, *name, r.traced, out); err != nil {
		out.fail("%v", err)
	}

	res := result{Attempted: out.attempted, Failed: len(out.failures), Metrics: out.metrics}
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", *name)
		return 1
	}
	printReport(env, *name, *seed, r, out)
	if steal1, total1 := cpuTicks(); total1 > total0 {
		fmt.Printf("  host steal: %.1f%% of this machine's CPU time during the run\n", 100*(steal1-steal0)/(total1-total0))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runner carries one run's settings to the workload drivers.
type runner struct {
	ctx      context.Context
	name     string
	seed     int64
	traced   bool
	traceID  string
	deadline time.Time
	slack    time.Duration
}

// spawn runs this binary as a child in the given mode, decodes the JSON
// object it prints into out and returns the child's wall time in ms.
func (r *runner) spawn(out any, mode string, extra ...string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locating own binary: %w", err)
	}
	args := append([]string{"child", "-mode", mode, "-workload", r.name,
		"-seed", strconv.FormatInt(r.seed, 10), "-trace-id", r.traceID}, extra...)
	cmd := exec.CommandContext(r.ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("child %s: %w", mode, err)
	}
	wallMS := msSince(start)
	if err := json.Unmarshal(lastLine(stdout.Bytes()), out); err != nil {
		return wallMS, fmt.Errorf("child %s: decoding its result: %w", mode, err)
	}
	return wallMS, nil
}

// more reports whether another unit of the given expected length still
// fits the measuring time, which the last unit may overrun by a tenth;
// the first unit always runs. The slack lets a run fit as many of the
// long srsLTE checks when the host is slightly slower.
func (r *runner) more(units int, lastMS float64) bool {
	if units == 0 {
		return true
	}
	if r.ctx.Err() != nil {
		return false
	}
	end := time.Now().Add(time.Duration(lastMS * float64(time.Millisecond)))
	return end.Before(r.deadline.Add(r.slack))
}

// selfUsage reports this process's user + sys CPU seconds and its peak
// resident set so far.
func selfUsage() (cpuS, rssMB float64) {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// printReport writes the human-readable lines that precede the result:
// the environment, each timing with its tail percentile and sample
// count, and every failure.
func printReport(env environment, name string, seed int64, r runner, out *outcome) {
	envJSON, _ := json.Marshal(env) // plain strings and ints
	fmt.Printf("perfbench %s seed=%d trace=%v env=%s\n", name, seed, r.traced, envJSON)
	for _, k := range sortedKeys(out.metrics) {
		m := out.metrics[k]
		if s, ok := out.summaries[k]; ok && s.Tail > 0 {
			fmt.Printf("  %-34s %14.4f %-6s (n=%d, p%g=%.4f)\n", k, m.Value, m.Unit, s.N, s.Tail, s.TailValue)
		} else if ok {
			fmt.Printf("  %-34s %14.4f %-6s (n=%d)\n", k, m.Value, m.Unit, s.N)
		} else {
			fmt.Printf("  %-34s %14.4f %s\n", k, m.Value, m.Unit)
		}
	}
	for _, f := range out.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	if r.traced {
		fmt.Printf("  spans: %s\n", filepath.Join(buildDir, "traces", r.traceID))
	}
}
