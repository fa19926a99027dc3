// Package ts provides the finite transition-system intermediate
// representation the threat instrumentor compiles models into and the
// model checker verifies: variables over finite symbolic domains, an
// initial assignment, and guarded-command rules with interleaving
// semantics. Conditions and assignments are symbolic so that the very
// same structure can be model-checked in-process and rendered as an SMV
// description (the paper's model generator "outputs a SMV description of
// the model").
package ts

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Var is a finite-domain variable.
type Var struct {
	Name   string
	Domain []string
}

// State is a packed assignment: one domain index per variable, in the
// system's variable order.
type State []uint8

// Key returns a hashable identity for the state.
func (s State) Key() string { return string(s) }

// Clone copies the state.
func (s State) Clone() State {
	out := make(State, len(s))
	copy(out, s)
	return out
}

// Cond is a boolean condition over a state.
type Cond interface {
	Eval(sys *System, s State) bool
	// SMV renders the condition in nuXmv-style syntax.
	SMV() string
}

// Eq tests Var == Value.
type Eq struct{ Var, Value string }

// Eval implements Cond.
func (e Eq) Eval(sys *System, s State) bool { return sys.Get(s, e.Var) == e.Value }

// SMV implements Cond.
func (e Eq) SMV() string { return fmt.Sprintf("%s = %s", e.Var, e.Value) }

// Neq tests Var != Value.
type Neq struct{ Var, Value string }

// Eval implements Cond.
func (n Neq) Eval(sys *System, s State) bool { return sys.Get(s, n.Var) != n.Value }

// SMV implements Cond.
func (n Neq) SMV() string { return fmt.Sprintf("%s != %s", n.Var, n.Value) }

// In tests Var ∈ Values.
type In struct {
	Var    string
	Values []string
}

// Eval implements Cond.
func (i In) Eval(sys *System, s State) bool {
	v := sys.Get(s, i.Var)
	for _, want := range i.Values {
		if v == want {
			return true
		}
	}
	return false
}

// SMV implements Cond.
func (i In) SMV() string {
	return fmt.Sprintf("%s in {%s}", i.Var, strings.Join(i.Values, ", "))
}

// And is conjunction; empty And is true.
type And []Cond

// Eval implements Cond.
func (a And) Eval(sys *System, s State) bool {
	for _, c := range a {
		if !c.Eval(sys, s) {
			return false
		}
	}
	return true
}

// SMV implements Cond.
func (a And) SMV() string {
	if len(a) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(a))
	for i, c := range a {
		parts[i] = "(" + c.SMV() + ")"
	}
	return strings.Join(parts, " & ")
}

// Or is disjunction; empty Or is false.
type Or []Cond

// Eval implements Cond.
func (o Or) Eval(sys *System, s State) bool {
	for _, c := range o {
		if c.Eval(sys, s) {
			return true
		}
	}
	return false
}

// SMV implements Cond.
func (o Or) SMV() string {
	if len(o) == 0 {
		return "FALSE"
	}
	parts := make([]string, len(o))
	for i, c := range o {
		parts[i] = "(" + c.SMV() + ")"
	}
	return strings.Join(parts, " | ")
}

// Not is negation.
type Not struct{ C Cond }

// Eval implements Cond.
func (n Not) Eval(sys *System, s State) bool { return !n.C.Eval(sys, s) }

// SMV implements Cond.
func (n Not) SMV() string { return "!(" + n.C.SMV() + ")" }

// True is the constant true condition.
type True struct{}

// Eval implements Cond.
func (True) Eval(*System, State) bool { return true }

// SMV implements Cond.
func (True) SMV() string { return "TRUE" }

// Assign sets Var := Value when the rule fires.
type Assign struct{ Var, Value string }

// Rule is one guarded command. Name identifies the rule in
// counterexamples; the CEGAR loop prunes rules by name.
type Rule struct {
	Name    string
	Guard   Cond
	Assigns []Assign
	// Tags carries analysis metadata (e.g. adversary action descriptors
	// for the CPV feasibility check); ignored by the checker itself.
	Tags map[string]string
}

// System is the complete transition system.
type System struct {
	Name string

	vars     []Var
	varIdx   map[string]int
	valIdx   []map[string]uint8
	initVals map[string]string
	rules    []Rule
	// gen counts structural mutations (variables, initial values, rules);
	// the memoized fingerprint is valid exactly while its generation is
	// current.
	gen uint64
	fp  atomic.Pointer[fingerprintMemo]
}

// fingerprintMemo is a computed Fingerprint and the generation it
// describes.
type fingerprintMemo struct {
	gen uint64
	sum Fingerprint
}

// Generation reports the system's mutation counter. Every structural
// edit — AddVar, SetInit, AddRule, RemoveRule, MapRules — bumps it, so
// callers caching derived artifacts can detect staleness without
// diffing the system.
func (sys *System) Generation() uint64 { return sys.gen }

// Fingerprint is a system's structural identity: a SHA-256 over its
// name, variables and domains, initial values and rules (guards,
// assignments and tags). Two systems with equal fingerprints explore to
// the same graph and yield the same counterexample traces, whichever of
// them is explored.
type Fingerprint [32]byte

// Short renders the first six bytes as 12 hex digits, the form span
// attributes and snapshot file names carry.
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:6]) }

// Fingerprint returns the system's structural identity, computed at
// most once per generation. It is safe to call concurrently with other
// reads of the system, not with mutations.
func (sys *System) Fingerprint() Fingerprint {
	if m := sys.fp.Load(); m != nil && m.gen == sys.gen {
		return m.sum
	}
	var b fpBuf
	b.str(sys.Name)
	b.int(len(sys.vars))
	for _, v := range sys.vars {
		b.str(v.Name)
		b.int(len(v.Domain))
		for _, d := range v.Domain {
			b.str(d)
		}
		init, ok := sys.initVals[v.Name]
		if !ok {
			init = v.Domain[0]
		}
		b.str(init)
	}
	b.int(len(sys.rules))
	for _, r := range sys.rules {
		b.str(r.Name)
		guard := True{}.SMV()
		if r.Guard != nil {
			guard = r.Guard.SMV()
		}
		b.str(guard)
		b.int(len(r.Assigns))
		for _, a := range r.Assigns {
			b.str(a.Var)
			b.str(a.Value)
		}
		keys := make([]string, 0, len(r.Tags))
		for k := range r.Tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.int(len(keys))
		for _, k := range keys {
			b.str(k)
			b.str(r.Tags[k])
		}
	}
	m := &fingerprintMemo{gen: sys.gen, sum: sha256.Sum256(b)}
	sys.fp.Store(m)
	return m.sum
}

// fpBuf is the fingerprint's hash input: length-prefixed fields, so no
// two distinct field sequences share an encoding.
type fpBuf []byte

func (b *fpBuf) int(n int) { *b = binary.AppendUvarint(*b, uint64(n)) }

func (b *fpBuf) str(s string) {
	b.int(len(s))
	*b = append(*b, s...)
}

// NewSystem creates an empty system.
func NewSystem(name string) *System {
	return &System{
		Name:     name,
		varIdx:   make(map[string]int),
		initVals: make(map[string]string),
	}
}

// AddVar declares a variable with its finite domain. The first domain
// value is the default initial value.
func (sys *System) AddVar(name string, domain ...string) error {
	if len(domain) == 0 {
		return fmt.Errorf("ts: variable %s has empty domain", name)
	}
	if len(domain) > 255 {
		return fmt.Errorf("ts: variable %s domain exceeds 255 values", name)
	}
	if _, dup := sys.varIdx[name]; dup {
		return fmt.Errorf("ts: variable %s already declared", name)
	}
	seen := make(map[string]uint8, len(domain))
	for i, v := range domain {
		if _, dup := seen[v]; dup {
			return fmt.Errorf("ts: variable %s has duplicate domain value %s", name, v)
		}
		seen[v] = uint8(i)
	}
	sys.varIdx[name] = len(sys.vars)
	sys.vars = append(sys.vars, Var{Name: name, Domain: domain})
	sys.valIdx = append(sys.valIdx, seen)
	sys.gen++
	return nil
}

// SetInit sets the initial value of a declared variable.
func (sys *System) SetInit(name, value string) error {
	idx, ok := sys.varIdx[name]
	if !ok {
		return fmt.Errorf("ts: unknown variable %s", name)
	}
	if _, ok := sys.valIdx[idx][value]; !ok {
		return fmt.Errorf("ts: value %s not in domain of %s", value, name)
	}
	sys.initVals[name] = value
	sys.gen++
	return nil
}

// AddRule appends a guarded command; assignments are validated eagerly.
func (sys *System) AddRule(r Rule) error {
	if r.Name == "" {
		return errors.New("ts: rule must be named")
	}
	for _, a := range r.Assigns {
		idx, ok := sys.varIdx[a.Var]
		if !ok {
			return fmt.Errorf("ts: rule %s assigns unknown variable %s", r.Name, a.Var)
		}
		if _, ok := sys.valIdx[idx][a.Value]; !ok {
			return fmt.Errorf("ts: rule %s assigns %s a value outside its domain: %s", r.Name, a.Var, a.Value)
		}
	}
	if r.Guard == nil {
		r.Guard = True{}
	}
	sys.rules = append(sys.rules, r)
	sys.gen++
	return nil
}

// RemoveRule deletes a rule by exact name; used by CEGAR refinement. It
// reports whether the rule existed.
func (sys *System) RemoveRule(name string) bool {
	for i, r := range sys.rules {
		if r.Name == name {
			sys.rules = append(sys.rules[:i], sys.rules[i+1:]...)
			sys.gen++
			return true
		}
	}
	return false
}

// MapRules rewrites every rule through f; used by CEGAR refinements that
// strengthen guards or add assignments. The rewritten rules are not
// re-validated, so f must keep variables and values well-formed.
func (sys *System) MapRules(f func(Rule) Rule) {
	for i := range sys.rules {
		sys.rules[i] = f(sys.rules[i])
	}
	sys.gen++
}

// Rules returns the rule list (shared slice; callers must not mutate).
func (sys *System) Rules() []Rule { return sys.rules }

// RuleByName retrieves a rule.
func (sys *System) RuleByName(name string) (Rule, bool) {
	for _, r := range sys.rules {
		if r.Name == name {
			return r, true
		}
	}
	return Rule{}, false
}

// Vars returns the declared variables in order.
func (sys *System) Vars() []Var { return sys.vars }

// Get reads a variable's symbolic value from a state.
func (sys *System) Get(s State, name string) string {
	idx, ok := sys.varIdx[name]
	if !ok || idx >= len(s) {
		return ""
	}
	return sys.vars[idx].Domain[s[idx]]
}

// Set writes a variable's symbolic value into a state in place.
func (sys *System) Set(s State, name, value string) error {
	idx, ok := sys.varIdx[name]
	if !ok {
		return fmt.Errorf("ts: unknown variable %s", name)
	}
	vi, ok := sys.valIdx[idx][value]
	if !ok {
		return fmt.Errorf("ts: value %s not in domain of %s", value, name)
	}
	s[idx] = vi
	return nil
}

// InitialState packs the initial assignment.
func (sys *System) InitialState() State {
	s := make(State, len(sys.vars))
	for name, val := range sys.initVals {
		idx := sys.varIdx[name]
		s[idx] = sys.valIdx[idx][val]
	}
	return s
}

// Enabled reports whether rule r can fire in s.
func (sys *System) Enabled(r Rule, s State) bool { return r.Guard.Eval(sys, s) }

// Apply fires rule r on s and returns the successor.
func (sys *System) Apply(r Rule, s State) State {
	out := s.Clone()
	for _, a := range r.Assigns {
		idx := sys.varIdx[a.Var]
		out[idx] = sys.valIdx[idx][a.Value]
	}
	return out
}

// Successors enumerates (rule, successor) pairs for every enabled rule.
func (sys *System) Successors(s State) []Succ {
	var out []Succ
	for i := range sys.rules {
		r := &sys.rules[i]
		if r.Guard.Eval(sys, s) {
			out = append(out, Succ{Rule: r, State: sys.Apply(*r, s)})
		}
	}
	return out
}

// Succ is one outgoing edge of the reachability graph.
type Succ struct {
	Rule  *Rule
	State State
}

// CompiledRule is a rule lowered to index arithmetic for fast
// exploration: guards and assignments reference variable slots directly
// instead of going through name lookups.
type CompiledRule struct {
	Name  string
	Tags  map[string]string
	guard func(State) bool
	sets  []compiledAssign
}

type compiledAssign struct {
	idx int
	val uint8
}

// Enabled reports whether the compiled rule can fire in s.
func (cr *CompiledRule) Enabled(s State) bool { return cr.guard(s) }

// Apply fires the compiled rule, returning a fresh successor state.
func (cr *CompiledRule) Apply(s State) State {
	out := s.Clone()
	for _, a := range cr.sets {
		out[a.idx] = a.val
	}
	return out
}

// CompileRules lowers every rule for fast exploration. It returns an
// error when a condition references unknown variables or values, which
// would silently evaluate to false in the interpreted path.
func (sys *System) CompileRules() ([]CompiledRule, error) {
	out := make([]CompiledRule, 0, len(sys.rules))
	for _, r := range sys.rules {
		g, err := sys.compileCond(r.Guard)
		if err != nil {
			return nil, fmt.Errorf("ts: compiling rule %s: %w", r.Name, err)
		}
		cr := CompiledRule{Name: r.Name, Tags: r.Tags, guard: g}
		for _, a := range r.Assigns {
			idx, ok := sys.varIdx[a.Var]
			if !ok {
				return nil, fmt.Errorf("ts: compiling rule %s: unknown variable %s", r.Name, a.Var)
			}
			val, ok := sys.valIdx[idx][a.Value]
			if !ok {
				return nil, fmt.Errorf("ts: compiling rule %s: value %s outside domain of %s", r.Name, a.Value, a.Var)
			}
			cr.sets = append(cr.sets, compiledAssign{idx: idx, val: val})
		}
		out = append(out, cr)
	}
	return out, nil
}

// lookup resolves (var, value) to slot indices for compilation.
func (sys *System) lookup(varName, value string) (int, uint8, error) {
	idx, ok := sys.varIdx[varName]
	if !ok {
		return 0, 0, fmt.Errorf("unknown variable %s", varName)
	}
	val, ok := sys.valIdx[idx][value]
	if !ok {
		return 0, 0, fmt.Errorf("value %s outside domain of %s", value, varName)
	}
	return idx, val, nil
}

func (sys *System) compileCond(c Cond) (func(State) bool, error) {
	switch cc := c.(type) {
	case nil:
		return func(State) bool { return true }, nil
	case True:
		return func(State) bool { return true }, nil
	case Eq:
		// A value outside the domain can never be assigned: the test is
		// constantly false (matching interpreted semantics, and letting
		// generic properties mention states a given model lacks).
		idx, val, err := sys.lookup(cc.Var, cc.Value)
		if err != nil {
			if _, ok := sys.varIdx[cc.Var]; !ok {
				return nil, err
			}
			return func(State) bool { return false }, nil
		}
		return func(s State) bool { return s[idx] == val }, nil
	case Neq:
		idx, val, err := sys.lookup(cc.Var, cc.Value)
		if err != nil {
			if _, ok := sys.varIdx[cc.Var]; !ok {
				return nil, err
			}
			return func(State) bool { return true }, nil
		}
		return func(s State) bool { return s[idx] != val }, nil
	case In:
		idx, ok := sys.varIdx[cc.Var]
		if !ok {
			return nil, fmt.Errorf("unknown variable %s", cc.Var)
		}
		var mask [256]bool
		for _, v := range cc.Values {
			if val, ok := sys.valIdx[idx][v]; ok {
				mask[val] = true
			}
		}
		return func(s State) bool { return mask[s[idx]] }, nil
	case And:
		subs := make([]func(State) bool, len(cc))
		for i, sub := range cc {
			f, err := sys.compileCond(sub)
			if err != nil {
				return nil, err
			}
			subs[i] = f
		}
		return func(s State) bool {
			for _, f := range subs {
				if !f(s) {
					return false
				}
			}
			return true
		}, nil
	case Or:
		subs := make([]func(State) bool, len(cc))
		for i, sub := range cc {
			f, err := sys.compileCond(sub)
			if err != nil {
				return nil, err
			}
			subs[i] = f
		}
		return func(s State) bool {
			for _, f := range subs {
				if f(s) {
					return true
				}
			}
			return false
		}, nil
	case Not:
		f, err := sys.compileCond(cc.C)
		if err != nil {
			return nil, err
		}
		return func(s State) bool { return !f(s) }, nil
	default:
		// Fall back to interpreted evaluation for unknown condition types.
		return func(s State) bool { return c.Eval(sys, s) }, nil
	}
}

// CompileCond exposes condition compilation for the model checker's
// property predicates.
func (sys *System) CompileCond(c Cond) (func(State) bool, error) {
	return sys.compileCond(c)
}

// Assignments renders a state as a name->value map for reporting.
func (sys *System) Assignments(s State) map[string]string {
	out := make(map[string]string, len(sys.vars))
	for i, v := range sys.vars {
		out[v.Name] = v.Domain[s[i]]
	}
	return out
}

// Clone deep-copies the system so CEGAR refinements (rule pruning, guard
// strengthening, even new monitor variables) cannot affect the original.
// The clone inherits the original's generation and memoized
// fingerprint: until it is edited it is the same model.
func (sys *System) Clone() *System {
	out := &System{
		Name:     sys.Name,
		gen:      sys.gen,
		vars:     make([]Var, len(sys.vars)),
		varIdx:   make(map[string]int, len(sys.varIdx)),
		valIdx:   make([]map[string]uint8, len(sys.valIdx)),
		initVals: make(map[string]string, len(sys.initVals)),
		rules:    make([]Rule, len(sys.rules)),
	}
	copy(out.vars, sys.vars)
	for k, v := range sys.varIdx {
		out.varIdx[k] = v
	}
	for i, m := range sys.valIdx {
		cp := make(map[string]uint8, len(m))
		for k, v := range m {
			cp[k] = v
		}
		out.valIdx[i] = cp
	}
	for k, v := range sys.initVals {
		out.initVals[k] = v
	}
	copy(out.rules, sys.rules)
	out.fp.Store(sys.fp.Load())
	return out
}

// SMV renders the system as a nuXmv-style module: enumerated VAR
// declarations, ASSIGN init clauses, and a TRANS relation that is the
// disjunction of the guarded commands (plus a stutter step).
func (sys *System) SMV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- generated by prochecker from model %q\n", sys.Name)
	b.WriteString("MODULE main\nVAR\n")
	for _, v := range sys.vars {
		fmt.Fprintf(&b, "  %s : {%s};\n", v.Name, strings.Join(v.Domain, ", "))
	}
	b.WriteString("ASSIGN\n")
	names := make([]string, 0, len(sys.vars))
	for _, v := range sys.vars {
		names = append(names, v.Name)
	}
	for _, v := range sys.vars {
		init := sys.initVals[v.Name]
		if init == "" {
			init = v.Domain[0]
		}
		fmt.Fprintf(&b, "  init(%s) := %s;\n", v.Name, init)
	}
	b.WriteString("TRANS\n")
	var disjuncts []string
	for _, r := range sys.rules {
		assigned := make(map[string]string, len(r.Assigns))
		for _, a := range r.Assigns {
			assigned[a.Var] = a.Value
		}
		var parts []string
		parts = append(parts, "("+r.Guard.SMV()+")")
		for _, name := range names {
			if val, ok := assigned[name]; ok {
				parts = append(parts, fmt.Sprintf("next(%s) = %s", name, val))
			} else {
				parts = append(parts, fmt.Sprintf("next(%s) = %s", name, name))
			}
		}
		disjuncts = append(disjuncts, fmt.Sprintf("  -- rule %s\n  (%s)", r.Name, strings.Join(parts, " & ")))
	}
	// Stutter keeps the relation total.
	var stutter []string
	for _, name := range names {
		stutter = append(stutter, fmt.Sprintf("next(%s) = %s", name, name))
	}
	disjuncts = append(disjuncts, "  -- stutter\n  ("+strings.Join(stutter, " & ")+")")
	b.WriteString(strings.Join(disjuncts, " |\n"))
	b.WriteString(";\n")
	return b.String()
}

// Stats summarises the system.
func (sys *System) Stats() string {
	product := 1.0
	for _, v := range sys.vars {
		product *= float64(len(v.Domain))
	}
	return fmt.Sprintf("system %s: %d vars, %d rules, %.3g potential states",
		sys.Name, len(sys.vars), len(sys.rules), product)
}

// SortedVarNames lists variable names alphabetically (for deterministic
// reporting).
func (sys *System) SortedVarNames() []string {
	out := make([]string, 0, len(sys.vars))
	for _, v := range sys.vars {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}
