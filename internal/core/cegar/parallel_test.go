package cegar

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"prochecker/internal/mc"
	"prochecker/internal/resilience"
)

// catalogueLikeProps builds a small mixed batch: a property that needs a
// refinement, one that verifies outright, and one with an attack.
func catalogueLikeProps() []mc.Property {
	return []mc.Property{
		mc.NeverFires{
			PropName: "refined-forgery",
			Match:    ruleContains("ue:recv:authentication_request@inject"),
		},
		mc.NeverFires{
			PropName: "trivially-verified",
			Match:    func(string) bool { return false },
		},
		mc.NeverFires{
			PropName: "replay-attack",
			Match:    ruleContains("ue:recv:authentication_request@replay"),
		},
	}
}

// TestVerifyAllParallelMatchesSequential: the batch under a worker pool
// returns the same outcomes, in the same order, as the sequential walk.
func TestVerifyAllParallelMatchesSequential(t *testing.T) {
	c := composed(t, false)
	props := catalogueLikeProps()
	seq, err := VerifyAllContext(context.Background(), c, props, Config{PreCapture: true, Workers: 1})
	if err != nil {
		t.Fatalf("sequential VerifyAllContext: %v", err)
	}
	par, err := VerifyAllContext(context.Background(), c, props, Config{PreCapture: true, Workers: 4})
	if err != nil {
		t.Fatalf("parallel VerifyAllContext: %v", err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel outcomes diverge:\n  sequential %+v\n  parallel   %+v", seq, par)
	}
	if len(par) != len(props) {
		t.Fatalf("completed %d of %d properties", len(par), len(props))
	}
	for i, p := range props {
		if par[i].Property != p.Name() {
			t.Errorf("outcome %d is %s, want %s (ordering lost)", i, par[i].Property, p.Name())
		}
	}
}

// TestVerifyAllSharedExploration: the first iteration of every property
// checks the unrefined composed system and discharges on one cached
// graph.
func TestVerifyAllSharedExploration(t *testing.T) {
	c := composed(t, false)
	props := []mc.Property{
		mc.NeverFires{PropName: "a", Match: func(string) bool { return false }},
		mc.NeverFires{PropName: "b", Match: func(string) bool { return false }},
		mc.NeverFires{PropName: "c", Match: func(string) bool { return false }},
	}
	engine := mc.NewEngine()
	for _, p := range props {
		if _, err := engine.CheckContext(context.Background(), c.System, p, mc.Options{}); err != nil {
			t.Fatalf("CheckContext: %v", err)
		}
	}
	if hits, builds := engine.CacheStats(); builds != 1 || hits != len(props)-1 {
		t.Fatalf("hits=%d builds=%d, want %d/1: properties did not share one exploration",
			hits, builds, len(props)-1)
	}
}

// TestVerifyContextBudgetExhausted: a starved state budget surfaces as
// the typed resilience error with the Unknown verdict attached.
func TestVerifyContextBudgetExhausted(t *testing.T) {
	c := composed(t, false)
	prop := mc.NeverFires{PropName: "p", Match: func(string) bool { return false }}
	out, err := VerifyContext(context.Background(), c, prop, Config{
		PreCapture: true,
		MC:         mc.Options{MaxStates: 3},
	})
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if !out.Unknown {
		t.Errorf("budget-exhausted outcome not marked Unknown: %+v", out)
	}

	// The batch API keeps the inconclusive outcome and surfaces the error.
	outs, err := VerifyAllContext(context.Background(), c, []mc.Property{prop}, Config{
		PreCapture: true,
		MC:         mc.Options{MaxStates: 3},
	})
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("batch: want ErrBudgetExhausted, got %v", err)
	}
	if len(outs) != 1 || !outs[0].Unknown {
		t.Errorf("batch outcomes = %+v, want one Unknown", outs)
	}
	if resilience.ExitCode(err) != resilience.ExitBudgetExhausted {
		t.Errorf("exit code %d, want %d", resilience.ExitCode(err), resilience.ExitBudgetExhausted)
	}
}
