// Differential tests for the shared-frontier engine: for every property
// class the parallel engine must return the same verdicts and
// byte-identical counterexample traces as the sequential reference
// checker. Lives in package mc_test so it can drive the engine with the
// real 62-property catalogue (props imports mc).
package mc_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"prochecker/internal/core/props"
	"prochecker/internal/core/threat"
	"prochecker/internal/ltemodels"
	"prochecker/internal/mc"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
)

// composedSystem builds the threat-instrumented LTEInspector model the
// catalogue properties are written against.
func composedSystem(t *testing.T) *ts.System {
	t.Helper()
	c, err := threat.Compose(threat.Config{
		Name: "parallel-test",
		UE:   ltemodels.LTEInspectorUE(),
		MME:  ltemodels.MME(),
	})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	return c.System
}

// catalogueMC lists the model-checked subset of the property catalogue.
func catalogueMC(t *testing.T) []mc.Property {
	t.Helper()
	var out []mc.Property
	for _, p := range props.Catalogue() {
		if p.Kind == props.KindMC {
			out = append(out, p.MC())
		}
	}
	if len(out) == 0 {
		t.Fatal("no model-checked properties in the catalogue")
	}
	return out
}

// assertSameResult compares an engine result against the sequential
// reference, including the counterexample rule path byte for byte.
func assertSameResult(t *testing.T, name string, got, want mc.Result) {
	t.Helper()
	if got.Verified != want.Verified || got.Truncated != want.Truncated || got.Kind != want.Kind {
		t.Fatalf("%s: verdict mismatch: engine %+v, sequential %+v", name, got, want)
	}
	if got.StatesExplored != want.StatesExplored {
		t.Errorf("%s: states explored: engine %d, sequential %d", name, got.StatesExplored, want.StatesExplored)
	}
	gc, wc := got.Counterexample, want.Counterexample
	if (gc == nil) != (wc == nil) {
		t.Fatalf("%s: counterexample presence: engine %v, sequential %v", name, gc != nil, wc != nil)
	}
	if gc == nil {
		return
	}
	if !reflect.DeepEqual(gc.RuleNames(), wc.RuleNames()) {
		t.Errorf("%s: rule path:\n  engine     %v\n  sequential %v", name, gc.RuleNames(), wc.RuleNames())
	}
	if gc.LoopStart != wc.LoopStart {
		t.Errorf("%s: loop start: engine %d, sequential %d", name, gc.LoopStart, wc.LoopStart)
	}
	if !reflect.DeepEqual(gc.Initial, wc.Initial) {
		t.Errorf("%s: initial assignment differs", name)
	}
	if !reflect.DeepEqual(gc.Steps, wc.Steps) {
		t.Errorf("%s: trace steps differ (tags or state snapshots)", name)
	}
}

// TestEngineMatchesSequentialOnCatalogue is the headline differential:
// every model-checked catalogue property, on the full threat-composed
// LTEInspector model, under a parallel engine.
func TestEngineMatchesSequentialOnCatalogue(t *testing.T) {
	sys := composedSystem(t)
	opts := mc.Options{Workers: 4}
	engine := mc.NewEngine()
	for _, p := range catalogueMC(t) {
		got, err := engine.CheckContext(context.Background(), sys, p, opts)
		if err != nil {
			t.Fatalf("%s: engine error: %v", p.Name(), err)
		}
		want := mc.CheckSequential(sys, p, opts)
		assertSameResult(t, p.Name(), got, want)
	}
}

// chain builds a line a0 -> a1 -> ... -> an with an optional loop back.
func chain(t *testing.T, n int, loop bool) *ts.System {
	t.Helper()
	sys := ts.NewSystem("chain")
	domain := make([]string, n+1)
	for i := range domain {
		domain[i] = string(rune('a' + i))
	}
	if err := sys.AddVar("x", domain...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sys.AddRule(ts.Rule{
			Name:    "step-" + domain[i],
			Guard:   ts.Eq{Var: "x", Value: domain[i]},
			Assigns: []ts.Assign{{Var: "x", Value: domain[i+1]}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if loop {
		if err := sys.AddRule(ts.Rule{
			Name:    "wrap",
			Guard:   ts.Eq{Var: "x", Value: domain[n]},
			Assigns: []ts.Assign{{Var: "x", Value: domain[0]}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestEngineMatchesSequentialPerClass pins the per-class edge cases:
// initial violation, mid-exploration violation, event firing, response
// lasso (cycle) and response deadlock.
func TestEngineMatchesSequentialPerClass(t *testing.T) {
	cases := []struct {
		name string
		sys  *ts.System
		prop mc.Property
	}{
		{"invariant-holds", chain(t, 4, true), mc.Invariant{PropName: "p", Holds: ts.Neq{Var: "x", Value: "zz"}}},
		{"invariant-violated", chain(t, 4, true), mc.Invariant{PropName: "p", Holds: ts.Neq{Var: "x", Value: "d"}}},
		{"invariant-violated-initially", chain(t, 3, false), mc.Invariant{PropName: "p", Holds: ts.Neq{Var: "x", Value: "a"}}},
		{"never-fires-holds", chain(t, 4, true), mc.NeverFires{PropName: "p", Match: func(n string) bool { return n == "absent" }}},
		{"never-fires-violated", chain(t, 4, true), mc.NeverFires{PropName: "p", Match: func(n string) bool { return n == "step-c" }}},
		{"response-verified", chain(t, 3, false), mc.Response{
			PropName: "p",
			Trigger:  func(n string) bool { return n == "step-a" },
			Goal:     func(n string) bool { return n == "step-c" },
		}},
		{"response-cycle", chain(t, 3, true), mc.Response{
			PropName: "p",
			Trigger:  func(n string) bool { return n == "step-a" },
			Goal:     func(n string) bool { return n == "absent" },
		}},
		{"response-deadlock", chain(t, 3, false), mc.Response{
			PropName: "p",
			Trigger:  func(n string) bool { return n == "step-a" },
			Goal:     func(n string) bool { return n == "absent" },
		}},
		{"response-goal-state", chain(t, 3, true), mc.Response{
			PropName:  "p",
			Trigger:   func(n string) bool { return n == "step-a" },
			GoalState: ts.Eq{Var: "x", Value: "d"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				engine := mc.NewEngine()
				opts := mc.Options{Workers: workers}
				got, err := engine.CheckContext(context.Background(), tc.sys, tc.prop, opts)
				if err != nil {
					t.Fatalf("engine error: %v", err)
				}
				assertSameResult(t, tc.name, got, mc.CheckSequential(tc.sys, tc.prop, opts))
			}
		})
	}
}

// TestCheckAllDeterministic runs the catalogue batch twice on a parallel
// engine and against the sequential baseline: identical slices all round.
func TestCheckAllDeterministic(t *testing.T) {
	sys := composedSystem(t)
	list := catalogueMC(t)
	// NoVacuityPrune keeps this a pure engine-vs-sequential comparison;
	// the pruner has its own differential in vacuity_test.go.
	opts := mc.Options{Workers: 8, NoVacuityPrune: true}
	first, err := mc.NewEngine().CheckAllContext(context.Background(), sys, list, opts)
	if err != nil {
		t.Fatalf("CheckAllContext: %v", err)
	}
	second, err := mc.NewEngine().CheckAllContext(context.Background(), sys, list, opts)
	if err != nil {
		t.Fatalf("CheckAllContext (second run): %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two parallel runs disagree")
	}
	sequential := mc.CheckAllSequential(sys, list, opts)
	if len(first) != len(sequential) {
		t.Fatalf("result count: parallel %d, sequential %d", len(first), len(sequential))
	}
	for i := range first {
		assertSameResult(t, list[i].Name(), first[i], sequential[i])
	}
}

// TestCheckAllContextCancelled: a dead context stops the batch with the
// typed cancellation error and no phantom verdicts.
func TestCheckAllContextCancelled(t *testing.T) {
	sys := chain(t, 4, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	list := []mc.Property{
		mc.Invariant{PropName: "a", Holds: ts.Neq{Var: "x", Value: "zz"}},
		mc.Invariant{PropName: "b", Holds: ts.Neq{Var: "x", Value: "zz"}},
	}
	_, err := mc.NewEngine().CheckAllContext(ctx, sys, list, mc.Options{Workers: 2})
	if !errors.Is(err, resilience.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
}

// TestBudgetExhaustedTyped: hitting MaxStates is a typed error now, not
// a silent incomplete verdict.
func TestBudgetExhaustedTyped(t *testing.T) {
	sys := chain(t, 20, false)
	prop := mc.Invariant{PropName: "p", Holds: ts.Neq{Var: "x", Value: "zz"}}
	res, err := mc.CheckContext(context.Background(), sys, prop, mc.Options{MaxStates: 5})
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if !mc.IsBudgetExhausted(err) {
		t.Error("IsBudgetExhausted returned false for a budget error")
	}
	if !res.Truncated || res.Verified {
		t.Errorf("truncated result not marked: %+v", res)
	}
}

// TestEngineCacheReuseAndInvalidation: repeated checks share one build;
// a structural edit (RemoveRule bumps Generation) forces a re-explore.
func TestEngineCacheReuseAndInvalidation(t *testing.T) {
	sys := chain(t, 4, true)
	engine := mc.NewEngine()
	opts := mc.Options{}
	inv := mc.Invariant{PropName: "p", Holds: ts.Neq{Var: "x", Value: "zz"}}
	nf := mc.NeverFires{PropName: "q", Match: func(string) bool { return false }}
	for _, p := range []mc.Property{inv, nf} {
		if _, err := engine.CheckContext(context.Background(), sys, p, opts); err != nil {
			t.Fatalf("CheckContext: %v", err)
		}
	}
	if hits, builds := engine.CacheStats(); builds != 1 || hits != 1 {
		t.Fatalf("after two checks: hits=%d builds=%d, want 1/1", hits, builds)
	}
	if !sys.RemoveRule("wrap") {
		t.Fatal("RemoveRule failed")
	}
	if _, err := engine.CheckContext(context.Background(), sys, inv, opts); err != nil {
		t.Fatalf("CheckContext after edit: %v", err)
	}
	if _, builds := engine.CacheStats(); builds != 2 {
		t.Fatalf("stale graph served after RemoveRule: builds=%d, want 2", builds)
	}
}

// TestEngineSharesEqualModels: the cache keys on the model, not on the
// *ts.System — a clone and an independently composed twin are answered
// from the first system's graph, while an edited clone is a new model.
func TestEngineSharesEqualModels(t *testing.T) {
	sys := composedSystem(t)
	engine := mc.NewEngine()
	p := mc.NeverFires{PropName: "q", Match: func(string) bool { return false }}
	check := func(s *ts.System) (mc.Result, bool) {
		t.Helper()
		res, shared, err := engine.CheckShared(context.Background(), s, p, mc.Options{})
		if err != nil {
			t.Fatalf("CheckShared: %v", err)
		}
		return res, shared
	}
	first, shared := check(sys)
	if shared {
		t.Fatal("first check of a model reported a shared graph")
	}
	for _, twin := range []*ts.System{sys.Clone(), composedSystem(t)} {
		res, shared := check(twin)
		if !shared {
			t.Error("a structurally equal system was explored again")
		}
		assertSameResult(t, "twin", res, first)
	}
	edited := sys.Clone()
	if !edited.RemoveRule(edited.Rules()[0].Name) {
		t.Fatal("RemoveRule failed")
	}
	if _, shared := check(edited); shared {
		t.Error("an edited clone was answered from the original's graph")
	}
	if hits, builds := engine.CacheStats(); hits != 2 || builds != 2 {
		t.Errorf("hits=%d builds=%d, want 2/2", hits, builds)
	}
}

// TestEngineWaiterSurvivesCancelledBuild: a caller waiting on another
// caller's in-flight build of the same model must not inherit that
// caller's cancellation — with its own context live, it gets a verdict.
func TestEngineWaiterSurvivesCancelledBuild(t *testing.T) {
	sys := composedSystem(t)
	engine := mc.NewEngine()
	p := mc.Invariant{PropName: "explore", Holds: ts.True{}}
	want := mc.CheckSequential(sys, p, mc.Options{})

	buildCtx, cancelBuild := context.WithCancel(context.Background())
	defer cancelBuild()
	builderDone := make(chan struct{})
	go func() {
		defer close(builderDone)
		engine.CheckContext(buildCtx, sys, p, mc.Options{}) //nolint:errcheck // cancelled on purpose
	}()
	waitFor := func(cond func(hits, builds int) bool) {
		for !cond(engine.CacheStats()) {
			select {
			case <-builderDone:
				return
			default:
				runtime.Gosched()
			}
		}
	}
	waitFor(func(_, builds int) bool { return builds >= 1 })

	type outcome struct {
		res mc.Result
		err error
	}
	waiter := make(chan outcome, 1)
	go func() {
		res, err := engine.CheckContext(context.Background(), sys.Clone(), p, mc.Options{})
		waiter <- outcome{res, err}
	}()
	waitFor(func(hits, _ int) bool { return hits >= 1 })
	cancelBuild()

	got := <-waiter
	if got.err != nil {
		t.Fatalf("waiter with a live context failed: %v", got.err)
	}
	assertSameResult(t, "waiter", got.res, want)
	<-builderDone
}
