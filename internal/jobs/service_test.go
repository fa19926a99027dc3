package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
)

// fakeRunner builds deterministic results and can be gated so tests
// control exactly when a job finishes.
type fakeRunner struct {
	mu      sync.Mutex
	ran     []string // impls in execution order
	gate    chan struct{}
	fail    error
	respect bool // return ctx.Err() when the context ends first
}

func (f *fakeRunner) run(ctx context.Context, spec Spec) (*Result, error) {
	if f.gate != nil {
		if f.respect {
			select {
			case <-f.gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		} else {
			<-f.gate
		}
	}
	if ctx.Err() != nil && f.respect {
		return nil, ctx.Err()
	}
	f.mu.Lock()
	f.ran = append(f.ran, spec.Impl)
	f.mu.Unlock()
	if f.fail != nil {
		return nil, f.fail
	}
	return &Result{
		SchemaVersion: ResultSchemaVersion,
		Key:           spec.Key(),
		Spec:          spec,
		Verdicts:      []Verdict{{ID: "S06", Class: "authentication", Verified: true, Detail: "verified over 42 states"}},
	}, nil
}

func (f *fakeRunner) order() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.ran...)
}

// waitTerminal polls the service until the job leaves its open states.
func waitTerminal(t *testing.T, s *Service, id string) Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Job{}
}

func TestSubmitRunsToDone(t *testing.T) {
	fr := &fakeRunner{}
	reg := obs.NewRegistry()
	s, err := New(Config{Runner: fr.run, Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	j, err := s.Submit(Spec{Impl: "srsLTE", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued {
		t.Fatalf("state = %s, want queued", j.State)
	}
	done := waitTerminal(t, s, j.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", done.State, done.Error)
	}
	if done.Result == nil || len(done.Result.Verdicts) != 1 {
		t.Fatalf("result = %+v, want one verdict", done.Result)
	}
	if done.ExitCode != resilience.ExitOK {
		t.Fatalf("exit code = %d, want %d", done.ExitCode, resilience.ExitOK)
	}
	if done.Class != "none" {
		t.Fatalf("class = %q, want none", done.Class)
	}
	if got := reg.Counter("jobs.submitted").Value(); got != 1 {
		t.Fatalf("jobs.submitted = %d, want 1", got)
	}
	if got := reg.Counter("jobs.terminal.none").Value(); got != 1 {
		t.Fatalf("jobs.terminal.none = %d, want 1", got)
	}
}

func TestFIFOOrder(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, err := New(Config{Runner: fr.run, Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(Spec{Impl: fmt.Sprintf("impl-%d", i), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	close(fr.gate)
	for _, id := range ids {
		waitTerminal(t, s, id)
	}
	want := []string{"impl-0", "impl-1", "impl-2", "impl-3"}
	got := fr.order()
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want FIFO %v", got, want)
		}
	}
}

func TestBackpressureQueueFull(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, err := New(Config{Runner: fr.run, Workers: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(fr.gate)
		s.Close()
	}()

	// First job occupies the worker, second fills the one queue slot.
	// (The worker may not have dequeued the first yet, so allow one
	// extra submission before demanding ErrQueueFull.)
	full := false
	for i := 0; i < 3; i++ {
		_, err := s.Submit(Spec{Impl: fmt.Sprintf("impl-%d", i), Seed: 1})
		if errors.Is(err, ErrQueueFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("queue of capacity 1 accepted 3 submissions without ErrQueueFull")
	}
}

func TestCoalesceInflightDuplicates(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	reg := obs.NewRegistry()
	s, err := New(Config{Runner: fr.run, Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := Spec{Impl: "srsLTE", Seed: 7}
	a, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("duplicate in-flight submission got new job %s, want coalesced onto %s", b.ID, a.ID)
	}
	if got := reg.Counter("jobs.submitted").Value(); got != 1 {
		t.Fatalf("jobs.submitted = %d, want 1 (coalesced)", got)
	}
	close(fr.gate)
	waitTerminal(t, s, a.ID)

	// After completion the key is no longer in flight: with no store the
	// same spec runs again as a genuinely new job.
	c, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID {
		t.Fatal("post-completion resubmission coalesced onto a terminal job")
	}
}

func TestStoreCacheHit(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	fr := &fakeRunner{}
	reg := obs.NewRegistry()
	s, err := New(Config{Runner: fr.run, Workers: 1, Store: store, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := Spec{Impl: "srsLTE", Seed: 7, Properties: []string{"S06"}}
	a, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	first := waitTerminal(t, s, a.ID)
	if first.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	if got := reg.Counter("jobs.cache_misses").Value(); got != 1 {
		t.Fatalf("jobs.cache_misses = %d, want 1", got)
	}

	b, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if b.State != StateDone || !b.CacheHit {
		t.Fatalf("resubmission state=%s cacheHit=%v, want instant done cache hit", b.State, b.CacheHit)
	}
	if got := reg.Counter("jobs.cache_hits").Value(); got != 1 {
		t.Fatalf("jobs.cache_hits = %d, want 1", got)
	}
	if len(fr.order()) != 1 {
		t.Fatalf("runner executed %d times, want 1 (second serve from store)", len(fr.order()))
	}

	// The stored bytes are the canonical encoding of the fresh result.
	wantBytes, err := first.Result.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, _, ok := store.Get(spec.Key())
	if !ok {
		t.Fatal("result missing from store")
	}
	if string(gotBytes) != string(wantBytes) {
		t.Fatalf("stored bytes differ from fresh canonical encoding:\n%s\nvs\n%s", gotBytes, wantBytes)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, err := New(Config{Runner: fr.run, Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(fr.gate)
		s.Close()
	}()

	// impl-0 occupies the worker; impl-1 waits in the queue.
	if _, err := s.Submit(Spec{Impl: "impl-0", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(Spec{Impl: "impl-1", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
	if got.ExitCode != resilience.KindCancelled.ExitCode() {
		t.Fatalf("exit code = %d, want %d", got.ExitCode, resilience.KindCancelled.ExitCode())
	}
}

func TestCancelRunningJob(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{}), respect: true}
	s, err := New(Config{Runner: fr.run, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(fr.gate)
		s.Close()
	}()

	j, err := s.Submit(Spec{Impl: "impl-0", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up, then cancel its context.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, _ := s.Get(j.ID)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, s, j.ID)
	if done.State != StateCancelled {
		t.Fatalf("state = %s (error %q), want cancelled", done.State, done.Error)
	}
}

func TestPerJobTimeout(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{}), respect: true}
	s, err := New(Config{Runner: fr.run, Workers: 1, Timeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(fr.gate)
		s.Close()
	}()

	j, err := s.Submit(Spec{Impl: "impl-0", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, s, j.ID)
	if done.State != StateCancelled {
		t.Fatalf("state = %s (error %q), want cancelled on timeout", done.State, done.Error)
	}
}

func TestFailedJobClassifies(t *testing.T) {
	fr := &fakeRunner{fail: fmt.Errorf("adversary won: %w", resilience.ErrFaultInjected)}
	s, err := New(Config{Runner: fr.run, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	j, err := s.Submit(Spec{Impl: "impl-0", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, s, j.ID)
	if done.State != StateFailed {
		t.Fatalf("state = %s, want failed", done.State)
	}
	if done.Class != resilience.KindFaultInjected.String() {
		t.Fatalf("class = %q, want fault-injected", done.Class)
	}
	if done.ExitCode != resilience.KindFaultInjected.ExitCode() {
		t.Fatalf("exit code = %d, want %d", done.ExitCode, resilience.KindFaultInjected.ExitCode())
	}
}

func TestDrainCancelsQueuedFinishesRunning(t *testing.T) {
	fr := &fakeRunner{gate: make(chan struct{})}
	s, err := New(Config{Runner: fr.run, Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}

	running, err := s.Submit(Spec{Impl: "impl-0", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Let the worker dequeue impl-0 before queueing the rest, so
	// exactly two jobs are still queued at drain time.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, _ := s.Get(running.ID)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	q1, err := s.Submit(Spec{Impl: "impl-1", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s.Submit(Spec{Impl: "impl-2", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan int, 1)
	go func() {
		n, derr := s.Drain(context.Background())
		if derr != nil {
			t.Error(derr)
		}
		drained <- n
	}()
	// Drain must reject new work. Poll with impl-1's spec: before the
	// drain flag flips it coalesces onto q1 (no new job inflating the
	// cancelled count), after it the submission errors.
	waitErr := func() error {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if _, err := s.Submit(Spec{Impl: "impl-1", Seed: 1}); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}()
	if !errors.Is(waitErr, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", waitErr)
	}
	close(fr.gate) // release the running job
	n := <-drained
	if n != 2 {
		t.Fatalf("drain cancelled %d queued jobs, want 2", n)
	}
	if j, _ := s.Get(running.ID); j.State != StateDone {
		t.Fatalf("running job state = %s, want done (drain finishes running work)", j.State)
	}
	for _, id := range []string{q1.ID, q2.ID} {
		if j, _ := s.Get(id); j.State != StateCancelled {
			t.Fatalf("queued job %s state = %s, want cancelled", id, j.State)
		}
	}
	// Idempotent: a second drain returns immediately with 0.
	if n, err := s.Drain(context.Background()); err != nil || n != 0 {
		t.Fatalf("second drain = (%d, %v), want (0, nil)", n, err)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) *Result {
		spec := Spec{Impl: "srsLTE", Seed: seed}
		return &Result{SchemaVersion: ResultSchemaVersion, Key: spec.Key(), Spec: spec}
	}
	r1, r2, r3 := mk(1), mk(2), mk(3)
	for _, r := range []*Result{r1, r2} {
		if _, err := store.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	// Touch r1 so r2 is the LRU victim when r3 arrives.
	if _, _, ok := store.Get(r1.Key); !ok {
		t.Fatal("r1 missing before eviction")
	}
	if _, err := store.Put(r3); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d entries, want 2", store.Len())
	}
	if store.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", store.Evictions())
	}
	if _, _, ok := store.Get(r2.Key); ok {
		t.Fatal("r2 survived eviction; LRU should have evicted it")
	}
	if _, _, ok := store.Get(r1.Key); !ok {
		t.Fatal("recently-used r1 was evicted")
	}
	if _, err := os.Stat(filepath.Join(dir, r2.Key+".json")); !os.IsNotExist(err) {
		t.Fatalf("evicted entry's file still on disk (stat err %v)", err)
	}
}

func TestStoreReopenAdoptsAndRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Impl: "OAI", Seed: 9}
	res := &Result{SchemaVersion: ResultSchemaVersion, Key: spec.Key(), Spec: spec}
	want, err := store.Put(res)
	if err != nil {
		t.Fatal(err)
	}
	// A stray non-result file must not be adopted.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupt result file is adopted by name but dropped on first read.
	badSpec := Spec{Impl: "srsLTE", Seed: 1}
	if err := os.WriteFile(filepath.Join(dir, badSpec.Key()+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reopened store adopted %d entries, want 2", re.Len())
	}
	got, _, ok := re.Get(spec.Key())
	if !ok {
		t.Fatal("reopened store lost the stored result")
	}
	if string(got) != string(want) {
		t.Fatal("reopened store returned different bytes")
	}
	if _, _, ok := re.Get(badSpec.Key()); ok {
		t.Fatal("corrupt entry served as a result")
	}
	if re.Len() != 1 {
		t.Fatalf("corrupt entry not dropped: len = %d, want 1", re.Len())
	}
}

// TestStoreQuarantinesRewrittenEntry: a result file rewritten after Get
// served it — still valid JSON of the same result, but not the bytes Put
// wrote — is quarantined on the next Get instead of served.
func TestStoreQuarantinesRewrittenEntry(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Impl: "OAI", Seed: 9}
	b, err := store.Put(&Result{SchemaVersion: ResultSchemaVersion, Key: spec.Key(), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := store.Get(spec.Key()); !ok {
		t.Fatal("stored result not served")
	}
	tabbed := bytes.ReplaceAll(b, []byte("  "), []byte("\t"))
	if err := os.WriteFile(filepath.Join(dir, spec.Key()+".json"), tabbed, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := store.Get(spec.Key()); ok {
		t.Fatalf("rewritten entry served: %q", got)
	}
	if store.Quarantined() != 1 || store.Len() != 0 {
		t.Fatalf("quarantined = %d, len = %d; want 1, 0", store.Quarantined(), store.Len())
	}
}

func TestSpecKeyDiscriminates(t *testing.T) {
	base := Spec{Impl: "srsLTE", Faults: "drop=0.15", Seed: 42, Properties: []string{"S06"}, Catalogue: "abc"}
	variants := []Spec{
		{Impl: "OAI", Faults: "drop=0.15", Seed: 42, Properties: []string{"S06"}, Catalogue: "abc"},
		{Impl: "srsLTE", Faults: "drop=0.25", Seed: 42, Properties: []string{"S06"}, Catalogue: "abc"},
		{Impl: "srsLTE", Faults: "drop=0.15", Seed: 43, Properties: []string{"S06"}, Catalogue: "abc"},
		{Impl: "srsLTE", Faults: "drop=0.15", Seed: 42, Properties: []string{"S07"}, Catalogue: "abc"},
		{Impl: "srsLTE", Faults: "drop=0.15", Seed: 42, Properties: []string{"S06"}, Catalogue: "def"},
	}
	for i, v := range variants {
		if v.Key() == base.Key() {
			t.Fatalf("variant %d collides with base key", i)
		}
	}
	same := Spec{Impl: "srsLTE", Faults: "drop=0.15", Seed: 42, Properties: []string{"S06"}, Catalogue: "abc"}
	if same.Key() != base.Key() {
		t.Fatal("equal specs hash to different keys")
	}
	// Nil and empty property selections share one key.
	a := Spec{Impl: "srsLTE", Seed: 1, Properties: nil}
	b := Spec{Impl: "srsLTE", Seed: 1, Properties: []string{}}
	if a.Key() != b.Key() {
		t.Fatal("nil vs empty property selection changed the key")
	}
}

func TestWorstExitCode(t *testing.T) {
	mk := func(class string) Job { return Job{State: StateDone, Class: class} }
	if got := WorstExitCode(nil); got != resilience.ExitOK {
		t.Fatalf("empty list exit = %d, want %d", got, resilience.ExitOK)
	}
	list := []Job{mk("none"), mk("cancelled"), mk("fault-injected")}
	if got := WorstExitCode(list); got != resilience.KindFaultInjected.ExitCode() {
		t.Fatalf("worst exit = %d, want %d", got, resilience.KindFaultInjected.ExitCode())
	}
	list = append(list, mk("internal"))
	if got := WorstExitCode(list); got != resilience.KindInternal.ExitCode() {
		t.Fatalf("worst exit = %d, want %d", got, resilience.KindInternal.ExitCode())
	}
}

func TestSortProperties(t *testing.T) {
	got := SortProperties([]string{"S07", "S06", "S07", "S06"})
	if strings.Join(got, ",") != "S06,S07" {
		t.Fatalf("SortProperties = %v, want [S06 S07]", got)
	}
	if SortProperties(nil) != nil {
		t.Fatal("SortProperties(nil) != nil")
	}
	if SortProperties([]string{}) != nil {
		t.Fatal("SortProperties(empty) != nil")
	}
}
