package prochecker

import (
	"context"
	"strings"
	"testing"
	"time"

	"prochecker/internal/jobs"
	"prochecker/internal/resilience"
)

func TestParseImplementationCaseInsensitive(t *testing.T) {
	cases := []struct {
		in   string
		want Implementation
	}{
		{"conformant", Conformant},
		{"CONFORMANT", Conformant},
		{"srsLTE", SRSLTE},
		{"srslte", SRSLTE},
		{"SRSLTE", SRSLTE},
		{"OAI", OAI},
		{"oai", OAI},
	}
	for _, c := range cases {
		got, err := ParseImplementation(c.in)
		if err != nil {
			t.Fatalf("ParseImplementation(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseImplementation(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseImplementationUnknownListsValidSet(t *testing.T) {
	_, err := ParseImplementation("amarisoft")
	if err == nil {
		t.Fatal("unknown implementation accepted")
	}
	for _, want := range []string{"amarisoft", "conformant", "srsLTE", "OAI"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestNormalizeJobSpecCanonicalises(t *testing.T) {
	got, err := NormalizeJobSpec(JobSpec{
		Impl:       "srslte",
		Faults:     "drop=0.15,corrupt=0",
		Seed:       42,
		Properties: []string{"S07", "S06", "S06"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Impl != "srsLTE" {
		t.Fatalf("Impl = %q, want canonical srsLTE", got.Impl)
	}
	if strings.Contains(got.Faults, "corrupt") {
		t.Fatalf("Faults = %q, want zero-probability stage dropped", got.Faults)
	}
	if strings.Join(got.Properties, ",") != "S06,S07" {
		t.Fatalf("Properties = %v, want sorted deduped [S06 S07]", got.Properties)
	}
	if got.Catalogue != CatalogueVersion() {
		t.Fatalf("Catalogue = %q, want %q", got.Catalogue, CatalogueVersion())
	}
	// Idempotent: normalizing a normalized spec changes nothing.
	again, err := NormalizeJobSpec(got)
	if err != nil {
		t.Fatal(err)
	}
	if again.Key() != got.Key() {
		t.Fatal("NormalizeJobSpec is not idempotent")
	}
}

func TestNormalizeJobSpecRejectsBadInput(t *testing.T) {
	if _, err := NormalizeJobSpec(JobSpec{Impl: "nope"}); err == nil {
		t.Fatal("unknown implementation accepted")
	}
	if _, err := NormalizeJobSpec(JobSpec{Impl: "OAI", Faults: "bogus=1"}); err == nil {
		t.Fatal("bad fault spec accepted")
	}
	if _, err := NormalizeJobSpec(JobSpec{Impl: "OAI", Properties: []string{"S99"}}); err == nil {
		t.Fatal("unknown property accepted")
	}
}

// Equivalent submissions must collapse onto one key; materially
// different ones must not (the content-address is the dedup boundary).
func TestJobKeyEquivalenceAndDiscrimination(t *testing.T) {
	norm := func(s JobSpec) string {
		t.Helper()
		n, err := NormalizeJobSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return n.Key()
	}
	base := norm(JobSpec{Impl: "srsLTE", Faults: "drop=0.15", Seed: 42, Properties: []string{"S06"}})
	if k := norm(JobSpec{Impl: "SRSLTE", Faults: "corrupt=0,drop=0.15", Seed: 42, Properties: []string{"S06", "S06"}}); k != base {
		t.Fatal("equivalent submission (case, fault-spec noise, duplicate property) missed the cache key")
	}
	if k := norm(JobSpec{Impl: "srsLTE", Faults: "drop=0.25", Seed: 42, Properties: []string{"S06"}}); k == base {
		t.Fatal("changed fault spec kept the same key")
	}
	if k := norm(JobSpec{Impl: "srsLTE", Faults: "drop=0.15", Seed: 43, Properties: []string{"S06"}}); k == base {
		t.Fatal("changed seed kept the same key")
	}
}

// The differential guarantee behind caching: running the same spec
// twice yields byte-identical stored verdict JSON, so a cache hit is
// indistinguishable from a fresh computation.
func TestRunJobDeterministicBytes(t *testing.T) {
	spec := JobSpec{Impl: "srsLTE", Faults: "drop=0.15", Seed: 42, Properties: []string{"S06"}}
	ctx := context.Background()
	a, err := RunJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("same spec produced different canonical bytes:\n%s\nvs\n%s", ab, bb)
	}
	if len(a.Verdicts) != 1 || a.Verdicts[0].ID != "S06" {
		t.Fatalf("verdicts = %+v, want exactly S06", a.Verdicts)
	}
}

func TestCampaignSpecJobsMatrix(t *testing.T) {
	spec := CampaignSpec{
		Impls:      []string{"conformant", "srslte", "OAI"},
		Faults:     []string{"", "drop=0.15"},
		Seed:       42,
		Properties: []string{"S06"},
	}
	specs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("matrix expanded to %d jobs, want 6", len(specs))
	}
	labels := make([]string, 0, len(specs))
	for _, s := range specs {
		labels = append(labels, JobLabel(s))
	}
	want := "conformant conformant+drop=0.15 srsLTE srsLTE+drop=0.15 OAI OAI+drop=0.15"
	if got := strings.Join(labels, " "); got != want {
		t.Fatalf("labels = %q, want %q", got, want)
	}
	keys := make(map[string]bool)
	for _, s := range specs {
		keys[s.Key()] = true
	}
	if len(keys) != 6 {
		t.Fatalf("matrix cells share keys: %d unique of 6", len(keys))
	}

	// Empty fault list means one benign column per implementation.
	benign, err := CampaignSpec{Impls: []string{"OAI"}, Seed: 1}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(benign) != 1 || benign[0].Faults != "" {
		t.Fatalf("benign campaign = %+v, want one faultless job", benign)
	}

	if _, err := (CampaignSpec{Seed: 1}).Jobs(); err == nil {
		t.Fatal("empty implementation list accepted")
	}
}

func TestCatalogueVersionStable(t *testing.T) {
	v := CatalogueVersion()
	if len(v) != 12 {
		t.Fatalf("CatalogueVersion() = %q, want 12 hex chars", v)
	}
	if v != CatalogueVersion() {
		t.Fatal("CatalogueVersion() not stable across calls")
	}
}

// A job service wired with the real runner must serve a repeated spec
// from the store with byte-identical content (the tentpole's dedup
// guarantee, end to end).
func TestServiceDedupWithRealRunner(t *testing.T) {
	store, err := jobs.OpenStore(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := jobs.New(jobs.Config{
		Runner:    JobRunner(2),
		Normalize: NormalizeJobSpec,
		Store:     store,
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	spec := JobSpec{Impl: "srslte", Faults: "drop=0.15", Seed: 42, Properties: []string{"S06"}}
	first, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil := time.Now().Add(30 * time.Second)
	for {
		j, _ := svc.Get(first.ID)
		if j.Terminal() {
			first = j
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if first.State != jobs.StateDone {
		t.Fatalf("first job state = %s (error %q), want done", first.State, first.Error)
	}

	second, err := svc.Submit(JobSpec{Impl: "SRSLTE", Faults: "drop=0.15,corrupt=0", Seed: 42, Properties: []string{"S06", "S06"}})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.State != jobs.StateDone {
		t.Fatalf("equivalent resubmission state=%s cacheHit=%v, want instant cache hit", second.State, second.CacheHit)
	}
	fb, err := first.Result.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := second.Result.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(fb) != string(sb) {
		t.Fatal("cached result differs from fresh result")
	}
}

// TestUnknownPropertyJobFailsFastAsUsage: a job naming a property the
// catalogue lacks (here reaching the real runner because the service
// has no Normalize hook) fails on its first attempt with the usage
// class, even under a retry policy.
func TestUnknownPropertyJobFailsFastAsUsage(t *testing.T) {
	svc, err := jobs.New(jobs.Config{
		Runner:  JobRunner(1),
		Workers: 1,
		Retry:   jobs.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond, MaxBackoff: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	j, err := svc.Submit(JobSpec{Impl: "OAI", Properties: []string{"V999"}})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil := time.Now().Add(30 * time.Second)
	for !j.Terminal() {
		if time.Now().After(waitUntil) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
		j, _ = svc.Get(j.ID)
	}
	if j.State != jobs.StateFailed || j.Attempts != 1 {
		t.Fatalf("state=%s attempts=%d (error %q), want failed after 1 attempt", j.State, j.Attempts, j.Error)
	}
	if j.Class != resilience.KindUsage.String() || j.ExitCode != resilience.ExitUsage {
		t.Errorf("class=%q exit=%d, want usage/%d", j.Class, j.ExitCode, resilience.ExitUsage)
	}
}
