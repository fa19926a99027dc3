package cegar

import (
	"context"
	"reflect"
	"testing"

	"prochecker/internal/mc"
)

// useEngine points the package-level checker at e for the rest of the
// test, restoring the process-wide engine afterwards.
func useEngine(t *testing.T, e *mc.Engine) {
	t.Helper()
	prev := mc.DefaultEngine
	mc.DefaultEngine = e
	t.Cleanup(func() { mc.DefaultEngine = prev })
}

// sameOutcome compares everything a verdict reports, the attack trace
// (steps, tags and state snapshots) included.
func sameOutcome(t *testing.T, label string, got, want Outcome) {
	t.Helper()
	if got.Verified != want.Verified || got.Iterations != want.Iterations ||
		got.StatesExplored != want.StatesExplored || got.Unknown != want.Unknown {
		t.Errorf("%s: verdict differs:\n  got  %+v\n  want %+v", label, got, want)
	}
	if !reflect.DeepEqual(got.Refinements, want.Refinements) {
		t.Errorf("%s: refinements differ:\n  got  %+v\n  want %+v", label, got.Refinements, want.Refinements)
	}
	if !reflect.DeepEqual(got.Attack, want.Attack) {
		t.Errorf("%s: attack trace differs:\n  got\n%v  want\n%v", label, got.Attack, want.Attack)
	}
}

// TestSharedRefinedModelTraces: two properties whose CEGAR runs take the
// same first refinement (the attach_accept replay guard), one of which
// then refines further, reach one identical refined model. On a shared
// engine the second property's check of that model is answered from the
// graph the first one built — and its trace is rebuilt from the system
// the first one explored. Both outcomes must equal isolated fresh-engine
// runs; refining a checked system in place would rewrite the other
// property's trace.
func TestSharedRefinedModelTraces(t *testing.T) {
	c := composed(t, false)
	list := []mc.Property{
		mc.Response{
			PropName: "security-mode-completes",
			Trigger:  ruleContains("/security_mode_command"),
			Goal:     ruleContains("mme:recv:security_mode_complete@"),
		},
		mc.NeverFires{
			PropName: "attach-accept-never-replayed",
			Match:    ruleContains("adv:drop:chan_dl:attach_accept@replay"),
		},
	}
	cfg := Config{PreCapture: true}

	want := make([]Outcome, len(list))
	for i, p := range list {
		useEngine(t, mc.NewEngine())
		out, err := Verify(c, p, cfg)
		if err != nil {
			t.Fatalf("%s alone: %v", p.Name(), err)
		}
		want[i] = out
	}
	deep, shallow := want[0], want[1]
	if len(shallow.Refinements) == 0 || len(deep.Refinements) <= len(shallow.Refinements) ||
		deep.Refinements[0] != shallow.Refinements[0] {
		t.Fatalf("fixture no longer shares a first refinement with one property refining further:\n  %+v\n  %+v",
			deep.Refinements, shallow.Refinements)
	}

	// In order on one engine: the deeper property refines past the
	// shared model before the shallow one checks it.
	engine := mc.NewEngine()
	useEngine(t, engine)
	for i, p := range list {
		out, err := Verify(c, p, cfg)
		if err != nil {
			t.Fatalf("%s on the shared engine: %v", p.Name(), err)
		}
		sameOutcome(t, "sequential "+p.Name(), out, want[i])
	}
	if _, builds := engine.CacheStats(); builds != deep.Iterations {
		t.Errorf("shared engine explored %d models, want %d: the shallow property's models were not shared",
			builds, deep.Iterations)
	}

	// Concurrently on one engine, for the race detector.
	useEngine(t, mc.NewEngine())
	outs, err := VerifyAllContext(context.Background(), c, list, Config{PreCapture: true, Workers: 2})
	if err != nil {
		t.Fatalf("VerifyAllContext: %v", err)
	}
	for i, p := range list {
		sameOutcome(t, "concurrent "+p.Name(), outs[i], want[i])
	}
}
