package ts

import (
	"strings"
	"testing"
)

func buildToy(t *testing.T) *System {
	t.Helper()
	sys := NewSystem("toy")
	for _, err := range []error{
		sys.AddVar("light", "red", "green"),
		sys.AddVar("cars", "stopped", "moving"),
		sys.SetInit("light", "red"),
		sys.SetInit("cars", "stopped"),
		sys.AddRule(Rule{
			Name:    "turn_green",
			Guard:   Eq{"light", "red"},
			Assigns: []Assign{{"light", "green"}},
		}),
		sys.AddRule(Rule{
			Name:    "go",
			Guard:   And{Eq{"light", "green"}, Eq{"cars", "stopped"}},
			Assigns: []Assign{{"cars", "moving"}},
		}),
		sys.AddRule(Rule{
			Name:    "turn_red",
			Guard:   Eq{"light", "green"},
			Assigns: []Assign{{"light", "red"}, {"cars", "stopped"}},
		}),
	} {
		if err != nil {
			t.Fatalf("building toy system: %v", err)
		}
	}
	return sys
}

func TestAddVarValidation(t *testing.T) {
	sys := NewSystem("v")
	if err := sys.AddVar("x"); err == nil {
		t.Error("empty domain accepted")
	}
	if err := sys.AddVar("y", "a", "a"); err == nil {
		t.Error("duplicate domain value accepted")
	}
	if err := sys.AddVar("z", "a"); err != nil {
		t.Fatalf("AddVar: %v", err)
	}
	if err := sys.AddVar("z", "b"); err == nil {
		t.Error("duplicate variable accepted")
	}
}

func TestSetInitValidation(t *testing.T) {
	sys := NewSystem("v")
	if err := sys.AddVar("x", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetInit("nope", "a"); err == nil {
		t.Error("unknown variable accepted")
	}
	if err := sys.SetInit("x", "c"); err == nil {
		t.Error("out-of-domain init accepted")
	}
}

func TestAddRuleValidation(t *testing.T) {
	sys := NewSystem("v")
	if err := sys.AddVar("x", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddRule(Rule{}); err == nil {
		t.Error("unnamed rule accepted")
	}
	if err := sys.AddRule(Rule{Name: "r", Assigns: []Assign{{"nope", "a"}}}); err == nil {
		t.Error("assignment to unknown variable accepted")
	}
	if err := sys.AddRule(Rule{Name: "r", Assigns: []Assign{{"x", "zzz"}}}); err == nil {
		t.Error("out-of-domain assignment accepted")
	}
	// Nil guard becomes True.
	if err := sys.AddRule(Rule{Name: "r", Assigns: []Assign{{"x", "b"}}}); err != nil {
		t.Fatalf("AddRule: %v", err)
	}
	r, ok := sys.RuleByName("r")
	if !ok || !r.Guard.Eval(sys, sys.InitialState()) {
		t.Error("nil guard did not default to True")
	}
}

func TestInitialStateAndGetSet(t *testing.T) {
	sys := buildToy(t)
	s := sys.InitialState()
	if sys.Get(s, "light") != "red" || sys.Get(s, "cars") != "stopped" {
		t.Errorf("initial = %v", sys.Assignments(s))
	}
	if err := sys.Set(s, "light", "green"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if sys.Get(s, "light") != "green" {
		t.Error("Set did not apply")
	}
	if err := sys.Set(s, "light", "blue"); err == nil {
		t.Error("out-of-domain Set accepted")
	}
	if sys.Get(s, "missing") != "" {
		t.Error("Get of unknown variable should be empty")
	}
}

func TestEnabledAndApply(t *testing.T) {
	sys := buildToy(t)
	s := sys.InitialState()
	r, _ := sys.RuleByName("turn_green")
	if !sys.Enabled(r, s) {
		t.Fatal("turn_green should be enabled initially")
	}
	s2 := sys.Apply(r, s)
	if sys.Get(s2, "light") != "green" {
		t.Error("Apply did not assign")
	}
	if sys.Get(s, "light") != "red" {
		t.Error("Apply mutated the input state")
	}
	goRule, _ := sys.RuleByName("go")
	if sys.Enabled(goRule, s) {
		t.Error("go enabled under red light")
	}
}

func TestSuccessors(t *testing.T) {
	sys := buildToy(t)
	succs := sys.Successors(sys.InitialState())
	if len(succs) != 1 || succs[0].Rule.Name != "turn_green" {
		t.Errorf("initial successors = %v", succs)
	}
}

func TestCondCombinators(t *testing.T) {
	sys := buildToy(t)
	s := sys.InitialState()
	tests := []struct {
		name string
		c    Cond
		want bool
	}{
		{"eq true", Eq{"light", "red"}, true},
		{"eq false", Eq{"light", "green"}, false},
		{"neq", Neq{"light", "green"}, true},
		{"in hit", In{"light", []string{"green", "red"}}, true},
		{"in miss", In{"light", []string{"green"}}, false},
		{"and empty", And{}, true},
		{"or empty", Or{}, false},
		{"not", Not{Eq{"light", "red"}}, false},
		{"true", True{}, true},
		{"or mixed", Or{Eq{"light", "green"}, Eq{"cars", "stopped"}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.Eval(sys, s); got != tt.want {
				t.Errorf("Eval = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRemoveRule(t *testing.T) {
	sys := buildToy(t)
	if !sys.RemoveRule("go") {
		t.Fatal("RemoveRule(go) = false")
	}
	if sys.RemoveRule("go") {
		t.Error("second RemoveRule(go) = true")
	}
	if _, ok := sys.RuleByName("go"); ok {
		t.Error("removed rule still present")
	}
	if len(sys.Rules()) != 2 {
		t.Errorf("rules = %d, want 2", len(sys.Rules()))
	}
}

func TestSMVOutput(t *testing.T) {
	sys := buildToy(t)
	smv := sys.SMV()
	for _, want := range []string{
		"MODULE main",
		"light : {red, green};",
		"init(light) := red;",
		"TRANS",
		"-- rule turn_green",
		"next(light) = green",
		"next(cars) = cars",
		"-- stutter",
	} {
		if !strings.Contains(smv, want) {
			t.Errorf("SMV output missing %q:\n%s", want, smv)
		}
	}
}

func TestStateKeyAndClone(t *testing.T) {
	sys := buildToy(t)
	s := sys.InitialState()
	c := s.Clone()
	if s.Key() != c.Key() {
		t.Error("clone has different key")
	}
	c[0] = 1
	if s.Key() == c.Key() {
		t.Error("clone aliases original")
	}
}

func TestStatsMentionsCounts(t *testing.T) {
	sys := buildToy(t)
	stats := sys.Stats()
	if !strings.Contains(stats, "2 vars") || !strings.Contains(stats, "3 rules") {
		t.Errorf("Stats = %q", stats)
	}
}

// TestGenerationBumpsOnStructuralEdits pins the mutation counter the
// exploration caches key on: every structural edit bumps it, reads and
// failed edits leave it alone, and a clone starts an independent line.
func TestGenerationBumpsOnStructuralEdits(t *testing.T) {
	sys := NewSystem("gen")
	g0 := sys.Generation()
	if err := sys.AddVar("x", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if sys.Generation() <= g0 {
		t.Fatal("AddVar did not bump the generation")
	}
	g1 := sys.Generation()
	if err := sys.SetInit("x", "b"); err != nil {
		t.Fatal(err)
	}
	if sys.Generation() <= g1 {
		t.Fatal("SetInit did not bump the generation")
	}
	g2 := sys.Generation()
	if err := sys.AddRule(Rule{Name: "r", Guard: Eq{"x", "a"}, Assigns: []Assign{{"x", "b"}}}); err != nil {
		t.Fatal(err)
	}
	if sys.Generation() <= g2 {
		t.Fatal("AddRule did not bump the generation")
	}
	g3 := sys.Generation()
	if sys.RemoveRule("absent") {
		t.Fatal("RemoveRule of absent rule reported success")
	}
	if sys.Generation() != g3 {
		t.Error("failed RemoveRule bumped the generation")
	}
	sys.MapRules(func(r Rule) Rule { return r })
	if sys.Generation() <= g3 {
		t.Error("MapRules did not bump the generation")
	}
	g4 := sys.Generation()
	if !sys.RemoveRule("r") {
		t.Fatal("RemoveRule failed")
	}
	if sys.Generation() <= g4 {
		t.Error("RemoveRule did not bump the generation")
	}
	g5 := sys.Generation()
	clone := sys.Clone()
	gc := clone.Generation()
	if err := clone.AddVar("y", "0"); err != nil {
		t.Fatal(err)
	}
	if clone.Generation() <= gc {
		t.Error("clone edits do not bump its generation")
	}
	if sys.Generation() != g5 {
		t.Error("editing the clone disturbed the original's generation")
	}
}

// TestFingerprintIdentity pins the structural identity the exploration
// cache and snapshots key on: a clone is the same model, every
// mutation kind makes a different one, and rule tags count.
func TestFingerprintIdentity(t *testing.T) {
	base := buildToy(t)
	fp := base.Fingerprint()
	if got := base.Clone().Fingerprint(); got != fp {
		t.Fatal("a clone's fingerprint differs from its original's")
	}
	if got := buildToy(t).Fingerprint(); got != fp {
		t.Fatal("two identically built systems have different fingerprints")
	}

	for _, tc := range []struct {
		name   string
		mutate func(*System) error
	}{
		{"AddVar", func(s *System) error { return s.AddVar("horn", "off", "on") }},
		{"SetInit", func(s *System) error { return s.SetInit("light", "green") }},
		{"AddRule", func(s *System) error {
			return s.AddRule(Rule{Name: "stall", Guard: Eq{"cars", "moving"}, Assigns: []Assign{{"cars", "stopped"}}})
		}},
		{"RemoveRule", func(s *System) error {
			if !s.RemoveRule("go") {
				t.Fatal("RemoveRule failed")
			}
			return nil
		}},
		{"MapRules", func(s *System) error {
			s.MapRules(func(r Rule) Rule {
				if r.Name == "go" {
					r.Guard = Eq{"light", "green"}
				}
				return r
			})
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := base.Clone()
			if err := tc.mutate(sys); err != nil {
				t.Fatal(err)
			}
			if sys.Fingerprint() == fp {
				t.Errorf("%s left the fingerprint unchanged", tc.name)
			}
			if base.Fingerprint() != fp {
				t.Errorf("%s on a clone changed the original's fingerprint", tc.name)
			}
		})
	}

	// Same structure, different tags: the traces differ (steps carry
	// tags), so the models must too.
	tagged := func(actor string) *System {
		sys := NewSystem("tags")
		if err := sys.AddVar("x", "a", "b"); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddRule(Rule{Name: "r", Assigns: []Assign{{"x", "b"}}, Tags: map[string]string{"actor": actor}}); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	if tagged("ue").Fingerprint() == tagged("adv").Fingerprint() {
		t.Error("systems differing only in a rule tag share a fingerprint")
	}
	if tagged("ue").Fingerprint() != tagged("ue").Fingerprint() {
		t.Error("identically tagged systems have different fingerprints")
	}
	if s := fp.Short(); len(s) != 12 {
		t.Errorf("Short() = %q, want 12 hex digits", s)
	}
}
