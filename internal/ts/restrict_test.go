package ts

import (
	"reflect"
	"testing"
)

// TestCloneRemembersOrigin: a clone names the system it was cloned
// from; a system built from scratch has no origin.
func TestCloneRemembersOrigin(t *testing.T) {
	sys := buildToy(t)
	if sys.Origin() != nil {
		t.Fatal("fresh system has an origin")
	}
	c := sys.Clone()
	if c.Origin() != sys {
		t.Fatal("clone does not name its original")
	}
	if cc := c.Clone(); cc.Origin() != c {
		t.Fatal("clone of a clone does not name its immediate original")
	}
}

// TestRestrictionOfPrune: removed rules map to -1, the rest to their
// new positions.
func TestRestrictionOfPrune(t *testing.T) {
	base := buildToy(t)
	sys := base.Clone()
	sys.RemoveRule("go")
	r, ok := RestrictionOf(base, sys)
	if !ok {
		t.Fatal("rule removal not recognised")
	}
	want := Restriction{Rule: []int32{0, -1, 1}, Var: -1, Width: 1}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("restriction = %+v, want %+v", r, want)
	}
}

// TestRestrictionOfObservation: the appended variable's guard conjuncts
// and trailing assignments are read back as value indexes.
func TestRestrictionOfObservation(t *testing.T) {
	base := buildToy(t)
	sys := base.Clone()
	if err := sys.AddVar("seen", "0", "1"); err != nil {
		t.Fatal(err)
	}
	sys.MapRules(func(r Rule) Rule {
		switch r.Name {
		case "turn_green":
			r.Assigns = append(append([]Assign{}, r.Assigns...), Assign{"seen", "1"})
		case "go":
			r.Guard = And{r.Guard, Eq{"seen", "1"}}
		}
		return r
	})
	r, ok := RestrictionOf(base, sys)
	if !ok {
		t.Fatal("observation edit not recognised")
	}
	want := Restriction{
		Rule: []int32{0, 1, 2}, Var: 2, Width: 2, Init: 0,
		Require: []int{-1, 1, -1},
		Set:     []int{1, -1, -1},
	}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("restriction = %+v, want %+v", r, want)
	}
}

// TestRestrictionOfRejects: every other edit is not a restriction.
func TestRestrictionOfRejects(t *testing.T) {
	for name, edit := range map[string]func(t *testing.T, s *System){
		"unedited": func(*testing.T, *System) {},
		"renamed":  func(_ *testing.T, s *System) { s.Name = "other" },
		"add-rule": func(t *testing.T, s *System) {
			if err := s.AddRule(Rule{Name: "stall", Guard: True{}}); err != nil {
				t.Fatal(err)
			}
		},
		"set-init": func(t *testing.T, s *System) {
			if err := s.SetInit("light", "green"); err != nil {
				t.Fatal(err)
			}
		},
		"tighten-existing-var": func(_ *testing.T, s *System) {
			s.MapRules(func(r Rule) Rule {
				if r.Name == "turn_red" {
					r.Guard = And{r.Guard, Eq{"cars", "moving"}}
				}
				return r
			})
		},
		"reorder": func(_ *testing.T, s *System) {
			rules := s.Rules()
			rules[0], rules[1] = rules[1], rules[0]
		},
		"retag": func(_ *testing.T, s *System) {
			s.MapRules(func(r Rule) Rule {
				r.Tags = map[string]string{"actor": "adv"}
				return r
			})
		},
		"two-vars": func(t *testing.T, s *System) {
			for _, v := range []string{"seen", "seen2"} {
				if err := s.AddVar(v, "0", "1"); err != nil {
					t.Fatal(err)
				}
			}
		},
		"prune-and-observe": func(t *testing.T, s *System) {
			s.RemoveRule("go")
			if err := s.AddVar("seen", "0", "1"); err != nil {
				t.Fatal(err)
			}
		},
		"observation-mid-assign": func(t *testing.T, s *System) {
			if err := s.AddVar("seen", "0", "1"); err != nil {
				t.Fatal(err)
			}
			s.MapRules(func(r Rule) Rule {
				if r.Name == "turn_red" {
					r.Assigns = []Assign{{"light", "red"}, {"seen", "1"}, {"cars", "stopped"}}
				}
				return r
			})
		},
	} {
		sys := buildToy(t).Clone()
		edit(t, sys)
		if r, ok := RestrictionOf(sys.Origin(), sys); ok {
			t.Errorf("%s: recognised as a restriction: %+v", name, r)
		}
	}
}
