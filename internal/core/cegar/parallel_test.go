package cegar

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"prochecker/internal/core/threat"
	"prochecker/internal/mc"
	"prochecker/internal/resilience"
)

// verifyAll runs VerifyContext for every property on the catalogue
// runner, returning outcomes indexed like props, the runner's items and
// its catalogue-stopped error.
func verifyAll(ctx context.Context, c *threat.Composed, props []mc.Property, cfg Config, workers int) ([]Outcome, []resilience.Item, error) {
	outs := make([]Outcome, len(props))
	items, stopped := resilience.RunCatalogue(ctx, len(props), workers, func(ctx context.Context, i int) error {
		var err error
		outs[i], err = VerifyContext(ctx, c, props[i], cfg)
		return err
	})
	return outs, items, stopped
}

// itemErr returns the first per-item error, or the runner's own.
func itemErr(items []resilience.Item, stopped error) error {
	for _, it := range items {
		if it.Err != nil {
			return it.Err
		}
	}
	return stopped
}

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

// TestVerifyAllParallelMatchesSequential: the batch on a four-worker
// catalogue runner returns the same outcomes, in the same order, as a
// one-worker walk.
func TestVerifyAllParallelMatchesSequential(t *testing.T) {
	c := composed(t, false)
	props := catalogueLikeProps()
	seq, items, stopped := verifyAll(context.Background(), c, props, Config{PreCapture: true}, 1)
	if err := itemErr(items, stopped); err != nil {
		t.Fatalf("sequential batch: %v", err)
	}
	par, items, stopped := verifyAll(context.Background(), c, props, Config{PreCapture: true}, 4)
	if err := itemErr(items, stopped); err != nil {
		t.Fatalf("parallel batch: %v", err)
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
	if resilience.ExitCode(err) != resilience.ExitBudgetExhausted {
		t.Errorf("exit code %d, want %d", resilience.ExitCode(err), resilience.ExitBudgetExhausted)
	}
}
