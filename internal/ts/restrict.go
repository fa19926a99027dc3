package ts

import (
	"maps"
	"slices"
)

// Restriction describes how a refined system differs from a base system
// when every run of the refined system is a run of the base system,
// possibly extended by one observation variable. RestrictionOf
// recognises exactly two such edits, the ones CEGAR refinement makes:
//
//   - rules removed (the rest unchanged and in order);
//   - one variable appended, where some rules gain a final guard
//     conjunct Eq{v, x} (And{oldGuard, Eq{v, x}}) and others one
//     trailing assignment to v, everything else unchanged.
//
// The model checker uses it to derive the refined reachability graph
// from the base graph without evaluating a single guard.
type Restriction struct {
	// Rule maps each base rule index to its index in the refined
	// system, or -1 when the rule was removed.
	Rule []int32
	// Var is the appended variable's index (the last one), or -1 when
	// no variable was appended.
	Var int
	// Width is the appended variable's domain size; 1 without one.
	Width int
	// Init is the appended variable's initial value index.
	Init uint8
	// Require[i] is the value index base rule i's extra guard conjunct
	// requires of Var, or -1 when its guard is unchanged. Nil without
	// an appended variable.
	Require []int
	// Set[i] is the value index base rule i's trailing assignment gives
	// Var, or -1 when its assignments are unchanged. Nil without an
	// appended variable.
	Set []int
}

// RestrictionOf reports whether sys is base with rules removed, or base
// with one appended variable that some rules test and others set (see
// Restriction). Any other difference — a rule added, changed, reordered
// or retagged, a changed initial value or domain, two variables
// appended, a different name, or no difference at all — reports false.
func RestrictionOf(base, sys *System) (Restriction, bool) {
	nb := len(base.vars)
	if base.Name != sys.Name || len(sys.vars) < nb || len(sys.vars) > nb+1 {
		return Restriction{}, false
	}
	for i, v := range base.vars {
		w := sys.vars[i]
		if v.Name != w.Name || !slices.Equal(v.Domain, w.Domain) || base.initIndex(i) != sys.initIndex(i) {
			return Restriction{}, false
		}
	}
	if len(sys.vars) == nb {
		return rulesRemoved(base, sys)
	}
	return observationAdded(base, sys)
}

// initIndex is variable i's initial value index.
func (sys *System) initIndex(i int) uint8 {
	v, ok := sys.initVals[sys.vars[i].Name]
	if !ok {
		return 0
	}
	return sys.valIdx[i][v]
}

// rulesRemoved matches sys's rules as a proper subsequence of base's
// rules.
func rulesRemoved(base, sys *System) (Restriction, bool) {
	if len(sys.rules) >= len(base.rules) {
		return Restriction{}, false
	}
	r := Restriction{Rule: make([]int32, len(base.rules)), Var: -1, Width: 1}
	j := 0
	for i := range base.rules {
		r.Rule[i] = -1
		if j < len(sys.rules) && sameRule(base.rules[i], sys.rules[j]) {
			r.Rule[i] = int32(j)
			j++
		}
	}
	return r, j == len(sys.rules)
}

// observationAdded matches sys's rules one to one against base's, each
// either unchanged or extended by a guard conjunct on, or a trailing
// assignment to, the appended variable.
func observationAdded(base, sys *System) (Restriction, bool) {
	if len(sys.rules) != len(base.rules) {
		return Restriction{}, false
	}
	v := len(base.vars)
	name := sys.vars[v].Name
	r := Restriction{
		Rule:    make([]int32, len(base.rules)),
		Var:     v,
		Width:   len(sys.vars[v].Domain),
		Init:    sys.initIndex(v),
		Require: make([]int, len(base.rules)),
		Set:     make([]int, len(base.rules)),
	}
	value := func(s string) int {
		x, ok := sys.valIdx[v][s]
		if !ok {
			return -1
		}
		return int(x)
	}
	for i, b := range base.rules {
		s := sys.rules[i]
		if b.Name != s.Name || !maps.Equal(b.Tags, s.Tags) {
			return Restriction{}, false
		}
		r.Rule[i] = int32(i)
		r.Require[i], r.Set[i] = -1, -1
		if bg := guardSMV(b); guardSMV(s) != bg {
			and, ok := s.Guard.(And)
			if !ok || len(and) != 2 || and[0].SMV() != bg {
				return Restriction{}, false
			}
			eq, ok := and[1].(Eq)
			if !ok || eq.Var != name || value(eq.Value) < 0 {
				return Restriction{}, false
			}
			r.Require[i] = value(eq.Value)
		}
		if !slices.Equal(b.Assigns, s.Assigns) {
			n := len(b.Assigns)
			if len(s.Assigns) != n+1 || !slices.Equal(b.Assigns, s.Assigns[:n]) ||
				s.Assigns[n].Var != name || value(s.Assigns[n].Value) < 0 {
				return Restriction{}, false
			}
			r.Set[i] = value(s.Assigns[n].Value)
		}
	}
	return r, true
}

// sameRule reports structural equality as the fingerprint sees it:
// name, guard, assignments and tags.
func sameRule(a, b Rule) bool {
	return a.Name == b.Name && guardSMV(a) == guardSMV(b) &&
		slices.Equal(a.Assigns, b.Assigns) && maps.Equal(a.Tags, b.Tags)
}

// guardSMV renders a rule's guard, a nil guard as True.
func guardSMV(r Rule) string {
	if r.Guard == nil {
		return True{}.SMV()
	}
	return r.Guard.SMV()
}
