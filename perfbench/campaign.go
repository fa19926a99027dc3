package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"prochecker"
	"prochecker/internal/jobs"
	"prochecker/internal/obs"
	"prochecker/internal/server"
)

// The campaign-light matrix: every profile crossed with a benign link
// and seven fault mixes, checking only the properties that need no
// model checking (equivalence V04–V08 and V23, knowledge V11). The time
// goes to conformance under faults, extraction, composition, lint,
// equivalence scenarios, the jobs queue, WAL and store, and the HTTP
// server — never to exploration. The fault columns are the campaign
// recipe of EXPERIMENTS.md (";drop=0.15;corrupt=0.10;
// drop=0.10,dup=0.05,reorder=0.10"), plus dup and reorder alone and two
// wider mixes, all at the recipe's rates.
var (
	campaignImpls  = []string{"conformant", "srsLTE", "OAI"}
	campaignFaults = []string{
		"",
		"drop=0.15",
		"corrupt=0.10",
		"drop=0.10,dup=0.05,reorder=0.10",
		"dup=0.05",
		"reorder=0.10",
		"drop=0.15,corrupt=0.10",
		"drop=0.10,corrupt=0.10,dup=0.05,reorder=0.10",
	}
	campaignProps = []string{"V04", "V05", "V06", "V07", "V08", "V11", "V23"}
)

const (
	// resubmits is how often each cold campaign is submitted again; the
	// copies are answered from the result store.
	resubmits = 5
	// pollEvery is the closed-loop client's wait between polls.
	pollEvery = 20 * time.Millisecond
	// rssCampaigns is how many cold campaigns (with their resubmissions)
	// one server process serves. The service keeps every job in memory,
	// so a process serving for the whole measuring time would end with a
	// peak RSS that grows with the machine's speed; and one process's
	// peak depends on when its collections happened to run, so
	// peak_rss_mb is the median over several processes.
	rssCampaigns = 8
	// storeEntries keeps every result of a run in the store, so no
	// resubmission misses through eviction.
	storeEntries = 4096
)

// campaignResult is the output of one campaign child.
type campaignResult struct {
	SetupMS   []float64          `json:"setup_ms"`
	ColdMS    []float64          `json:"cold_ms"`
	CachedMS  []float64          `json:"cached_ms"`
	CellMS    []float64          `json:"cell_ms"`
	CPUS      []float64          `json:"cpu_s"`
	QueueMS   []float64          `json:"queue_ms"`
	RunMS     []float64          `json:"run_ms"`
	PollMS    []float64          `json:"poll_ms"`
	Attempted int                `json:"attempted"`
	Failures  []string           `json:"failures,omitempty"`
	Digest    string             `json:"digest"`
	Counters  map[string]int64   `json:"counters"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	PropMS    []float64          `json:"prop_ms,omitempty"`
	RSSMB     float64            `json:"rss_mb"`
}

// campaign drives campaign-light: fresh server processes, one after the
// other, each serving up to rssCampaigns cold campaigns, for the whole
// measuring time. A traced run alternates untraced and traced
// processes; the untraced ones are the baseline for the tracing
// overhead.
func (r *runner) campaign() (*outcome, error) {
	out := &outcome{}
	if r.traced {
		plain, traced, err := r.serve(out, true)
		if err != nil {
			return nil, err
		}
		out.setLayers(traced.layers, map[string][]float64{
			"report.property_ms": traced.PropMS,
			"jobs.queue_wait_ms": traced.QueueMS,
			"jobs.run_ms":        traced.RunMS,
			"server.poll_ms":     traced.PollMS,
		}, plain.ColdMS, traced.ColdMS)
		return out, nil
	}
	setupMS, err := r.setupSamples()
	if err != nil {
		return nil, err
	}
	c, _, err := r.serve(out, false)
	if err != nil {
		return nil, err
	}
	out.setTiming("setup_s", "s", scale(append(setupMS, c.SetupMS...), 1e-3))
	out.setTiming("check_s", "s", scale(c.ColdMS, 1e-3))
	out.setTiming("cached_ms", "ms", c.CachedMS)
	out.setP90("item_ms.p90", c.CellMS)
	out.setTiming("cpu_s", "s", c.CPUS)
	out.setTiming("peak_rss_mb", "MB", c.rssMB)
	return out, nil
}

// served pools the samples of the server processes of one trace mode.
type served struct {
	campaignResult
	rssMB  []float64            // peak RSS of each process that served rssCampaigns campaigns
	layers []map[string]float64 // per-layer metrics of each traced process
}

func (all *served) add(c *campaignResult) {
	if len(c.ColdMS) == rssCampaigns {
		all.rssMB = append(all.rssMB, c.RSSMB)
	}
	if c.Layers != nil {
		all.layers = append(all.layers, c.Layers)
	}
	for _, pool := range []struct {
		dst *[]float64
		src []float64
	}{
		{&all.SetupMS, c.SetupMS}, {&all.ColdMS, c.ColdMS}, {&all.CachedMS, c.CachedMS},
		{&all.CellMS, c.CellMS}, {&all.CPUS, c.CPUS}, {&all.QueueMS, c.QueueMS},
		{&all.RunMS, c.RunMS}, {&all.PollMS, c.PollMS}, {&all.PropMS, c.PropMS},
	} {
		*pool.dst = append(*pool.dst, pool.src...)
	}
}

// serve starts server processes until the deadline: the first always
// runs, and none starts after one was cut short by the deadline. With
// alternate set, every second process is traced, and serving goes on
// until at least one traced process ran. Cold campaign k of the run
// gets the fault seed for k.
func (r *runner) serve(out *outcome, alternate bool) (plain, traced served, err error) {
	var partial []float64
	for n, k := 0, 0; ; n++ {
		tr := alternate && n%2 == 1
		var c campaignResult
		if _, err := r.spawn(&c, "campaign", "-until", strconv.FormatInt(r.deadline.UnixNano(), 10),
			"-first", strconv.Itoa(k), fmt.Sprintf("-traced=%v", tr)); err != nil {
			return plain, traced, err
		}
		k += len(c.ColdMS)
		out.attempted += c.Attempted
		out.failures = append(out.failures, c.Failures...)
		if err := out.agree(c.Digest, c.Counters, tr); err != nil {
			out.fail("campaign: %v", err)
		}
		if tr {
			traced.add(&c)
		} else {
			plain.add(&c)
			partial = append(partial, c.RSSMB)
		}
		full := len(c.ColdMS) == rssCampaigns
		if !(full && time.Now().Before(r.deadline)) && !(alternate && n == 0) {
			break
		}
	}
	if len(plain.rssMB) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: no server process reached %d campaigns; peak_rss_mb from shorter ones\n", rssCampaigns)
		plain.rssMB = partial
	}
	return plain, traced, nil
}

// campaignSpec is cold campaign k of a run: a fresh fault seed derived
// from the workload seed, so no two cold campaigns share a cache key.
func campaignSpec(seed int64, k int) prochecker.CampaignSpec {
	return prochecker.CampaignSpec{
		Impls:      campaignImpls,
		Faults:     campaignFaults,
		Seed:       int64(splitmix(uint64(seed)*1_000_003+uint64(k)) >> 1),
		Properties: campaignProps,
	}
}

// splitmix is the SplitMix64 finaliser: a fixed, well-mixed map from
// (seed, k) to a campaign seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// service is one in-process campaign server on loopback.
type service struct {
	svc  *jobs.Service
	http *http.Server
	tr   *http.Transport
	url  string
	done chan error
}

// startService opens a store and WAL under dir, starts the jobs service
// (two jobs at a time, one analysis worker each) behind server.New on a
// loopback port and returns once the server has answered its first
// request.
func startService(ctx context.Context, dir string, reg *obs.Registry) (*service, error) {
	store, err := jobs.OpenStore(filepath.Join(dir, "store"), storeEntries)
	if err != nil {
		return nil, err
	}
	svc, err := jobs.New(jobs.Config{
		Runner:      prochecker.JobRunner(1),
		Normalize:   prochecker.NormalizeJobSpec,
		Store:       store,
		WALDir:      filepath.Join(dir, "wal"),
		Workers:     workers,
		BaseContext: ctx,
		Metrics:     reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &service{
		svc:  svc,
		http: &http.Server{Handler: server.New(svc, reg), ReadHeaderTimeout: 5 * time.Second},
		tr:   &http.Transport{},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	resp, err := (&http.Client{Transport: s.tr}).Get(s.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return s, nil
}

// stop closes the server and the service and waits for both.
func (s *service) stop() {
	s.http.Close()
	<-s.done
	s.tr.CloseIdleConnections()
	s.svc.Close()
}

// settleDisk flushes the writes earlier units left in the page cache,
// so the fsyncs of the next timed unit do not queue behind them.
func settleDisk() { syscall.Sync() }

// startTimed brings a service up in dir and returns it with the time
// that took in ms.
func startTimed(ctx context.Context, dir string, reg *obs.Registry) (*service, float64, error) {
	settleDisk()
	start := time.Now()
	// The service's jobs hang off ctx, not off this span: they outlive it.
	_, span := obs.Start(ctx, "bench.setup")
	s, err := startService(ctx, dir, reg)
	span.EndErr(err)
	return s, msSince(start), err
}

// serviceSetupChild is the set-up-only child of campaign-light: one
// service brought up in a fresh process, as `prochecker -serve` starts.
func serviceSetupChild(ctx context.Context) (any, error) {
	dir := filepath.Join(buildDir, "run", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	s, ms, err := startTimed(ctx, dir, nil)
	if err != nil {
		return nil, err
	}
	s.stop()
	return setupResult{SetupMS: ms}, nil
}

// campaignChild serves up to rssCampaigns campaigns to one closed-loop
// client, stopping early at the deadline: each cold campaign is submitted, polled until every cell is
// done, checked against the known answers and then resubmitted; every
// resubmission must come back from the store byte-identical.
func campaignChild(ctx context.Context, seed int64, first int, traced bool, traceID string, until time.Time) (any, error) {
	dir := filepath.Join(buildDir, "run", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	var o *obs.Observer
	if traced {
		o = obs.New()
		o.Root().SetAttr("trace_id", traceID)
		ctx = obs.NewContext(ctx, o)
	}

	svc, setupMS, err := startTimed(ctx, filepath.Join(dir, "serve"), o.Metrics())
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	res := campaignResult{SetupMS: []float64{setupMS}}
	client := &server.Client{Base: svc.url, HTTP: &http.Client{Transport: svc.tr}, Retries: 1}

	base := counterValues(o.Metrics())
	var mem0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&mem0)
	}
	var submitMS, requests []float64
	lastMS := 0.0
	for k := 0; k < rssCampaigns && (k == 0 || time.Now().Add(time.Duration(lastMS*float64(time.Millisecond))).Before(until)); k++ {
		start := time.Now()
		c, err := runCold(ctx, client, campaignSpec(seed, first+k), &res, &submitMS, &requests)
		if err != nil {
			return nil, err
		}
		for i := 0; i < resubmits; i++ {
			if err := runCached(ctx, client, c, &res); err != nil {
				return nil, err
			}
		}
		lastMS = msSince(start)
	}
	_, res.RSSMB = selfUsage()
	if traced {
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		n := len(res.ColdMS)
		res.Layers = layerMetrics(o, base, n)
		res.Layers["runtime.alloc_mb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20) / float64(n)
		res.Layers["runtime.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6 / float64(n)
		res.Layers["server.submit_ms"] = Median(submitMS)
		res.Layers["server.requests_per_campaign"] = Median(requests)
		res.PropMS = spanTotals(o.Manifest().Spans)["property.evaluate"].durs
		for _, t := range []string{"conformance.cases", "equivalence.scenarios", "jobs.cache_misses", "jobs.cache_hits"} {
			res.Counters[t] = int64(res.Layers[t])
		}
		if err := writeTrace(traceID, o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runCold submits one fresh campaign, waits for it and checks it.
func runCold(ctx context.Context, client *server.Client, spec prochecker.CampaignSpec, res *campaignResult, submitMS, requests *[]float64) (server.Campaign, error) {
	settleDisk()
	cpu0, _ := selfUsage()
	submitted := time.Now()
	wall := submitted.Round(0) // wall-clock reading, comparable with the server's job timestamps

	sctx, span := obs.Start(ctx, "bench.campaign.submit")
	c, err := client.SubmitCampaign(sctx, spec)
	span.EndErr(err)
	if err != nil {
		return c, fmt.Errorf("submitting campaign: %w", err)
	}
	*submitMS = append(*submitMS, msSince(submitted))
	reqs := 1

	wctx, wspan := obs.Start(ctx, "bench.campaign.wait")
	for {
		select {
		case <-wctx.Done():
			wspan.EndErr(wctx.Err())
			return c, wctx.Err()
		case <-time.After(pollEvery):
		}
		start := time.Now()
		pctx, span := obs.Start(wctx, "bench.http.poll")
		c, err = client.Campaign(pctx, c.ID)
		span.EndErr(err)
		res.PollMS = append(res.PollMS, msSince(start))
		reqs++
		if err != nil {
			wspan.EndErr(err)
			return c, fmt.Errorf("polling campaign: %w", err)
		}
		if c.State.Terminal() {
			break
		}
	}
	wspan.End()
	cpu1, _ := selfUsage()
	res.CPUS = append(res.CPUS, cpu1-cpu0)
	*requests = append(*requests, float64(reqs))

	var last time.Time
	for _, j := range c.Jobs {
		if j.FinishedAt == nil {
			continue
		}
		if j.FinishedAt.After(last) {
			last = *j.FinishedAt
		}
		res.CellMS = append(res.CellMS, float64(j.FinishedAt.Sub(j.SubmittedAt).Nanoseconds())/1e6)
		res.QueueMS = append(res.QueueMS, j.QueueMS)
		res.RunMS = append(res.RunMS, j.RunMS)
	}
	res.ColdMS = append(res.ColdMS, float64(last.Sub(wall).Nanoseconds())/1e6)

	digest := judgeCampaign(c, res)
	if res.Digest == "" {
		res.Digest = digest
	} else if digest != res.Digest {
		res.Failures = append(res.Failures, fmt.Sprintf("campaign %s: verdict digest %s differs from the run's first %s", c.ID, digest, res.Digest))
	}
	if res.Counters == nil {
		res.Counters = map[string]int64{"cells": int64(len(c.Jobs))}
	}
	return c, nil
}

// runCached submits cold campaign c again and checks that every cell
// came from the store with byte-identical results.
func runCached(ctx context.Context, client *server.Client, cold server.Campaign, res *campaignResult) error {
	start := time.Now()
	rctx, span := obs.Start(ctx, "bench.campaign.resubmit")
	again, err := client.SubmitCampaign(rctx, cold.Spec)
	if err == nil {
		again, err = client.Campaign(rctx, again.ID)
	}
	span.EndErr(err)
	if err != nil {
		return fmt.Errorf("resubmitting campaign: %w", err)
	}
	res.CachedMS = append(res.CachedMS, msSince(start))
	res.Attempted += len(cold.Jobs)
	if len(again.Jobs) != len(cold.Jobs) {
		res.Failures = append(res.Failures, fmt.Sprintf("resubmitted %s: %d cells, cold had %d", cold.ID, len(again.Jobs), len(cold.Jobs)))
		return nil
	}
	for i, j := range again.Jobs {
		a, aerr := canonical(j.Result)
		b, berr := canonical(cold.Jobs[i].Result)
		if !j.CacheHit || j.State != jobs.StateDone || aerr != nil || berr != nil || !bytes.Equal(a, b) {
			res.Failures = append(res.Failures, fmt.Sprintf("resubmitted %s cell %s: not a byte-identical store hit", cold.ID, prochecker.JobLabel(j.Spec)))
		}
	}
	return nil
}

func canonical(r *jobs.Result) ([]byte, error) {
	if r == nil {
		return nil, errors.New("no result")
	}
	return r.MarshalCanonical()
}

// judgeCampaign checks every cell of a finished cold campaign against
// the known answers and returns the campaign's verdict digest. The
// properties it checks depend only on the profile, not on the link, so
// every fault column must agree with the benign answers.
func judgeCampaign(c server.Campaign, res *campaignResult) string {
	h := sha256.New()
	res.Attempted += len(campaignImpls) * len(campaignFaults) * len(campaignProps)
	if len(c.Jobs) != len(campaignImpls)*len(campaignFaults) {
		res.Failures = append(res.Failures, fmt.Sprintf("campaign %s: %d cells, want %d", c.ID, len(c.Jobs), len(campaignImpls)*len(campaignFaults)))
	}
	for _, j := range c.Jobs {
		label := prochecker.JobLabel(j.Spec)
		if j.State != jobs.StateDone || j.Result == nil {
			res.Failures = append(res.Failures, fmt.Sprintf("campaign %s cell %s: %s %s", c.ID, label, j.State, j.Error))
			continue
		}
		want := expected.Campaign[j.Spec.Impl]
		got := map[string]string{}
		for _, v := range j.Result.Verdicts {
			got[v.ID] = verdictWord(v.Verified, v.AttackFound)
		}
		for _, id := range campaignProps {
			if got[id] != want[id] {
				res.Failures = append(res.Failures, fmt.Sprintf("campaign %s cell %s %s: %q, want %q", c.ID, label, id, got[id], want[id]))
			}
		}
		fmt.Fprintf(h, "%s\x00%s\x00%s\n", j.Spec.Impl, j.Spec.Faults, strings.Join(sortedVerdicts(got), ","))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedVerdicts(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for _, k := range sortedKeys(m) {
		out = append(out, k+"="+m[k])
	}
	return out
}

// verdictWord names a definite verdict; anything else is inconclusive.
func verdictWord(verified, attack bool) string {
	switch {
	case attack && !verified:
		return "attack"
	case verified && !attack:
		return "verified"
	default:
		return "inconclusive"
	}
}
