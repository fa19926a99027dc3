// Differential tests for derived graphs: every graph the engine derives
// from a cached parent graph must equal a fresh exploration of the same
// system in state bytes, adjacency, the parent tree and truncation,
// under every Options combination; and every edit other than the two
// CEGAR refinements must take the fresh path.
package mc_test

import (
	"context"
	"fmt"
	"testing"

	"prochecker"
	"prochecker/internal/mc"
	"prochecker/internal/obs"
	"prochecker/internal/ts"
)

// neverMatches is a NeverFires property that holds everywhere: checking
// it only builds (or fetches) the model's graph.
var neverMatches = mc.NeverFires{PropName: "never", Match: func(string) bool { return false }}

// deriveAndCompare builds parent's graph on a fresh engine, then child's
// (derived when the engine recognises the edit), and compares the
// child's graph with a fresh exploration. It reports whether the child
// was derived and the child's graph.
func deriveAndCompare(t *testing.T, parent, child *ts.System, opts mc.Options) (bool, *mc.StateGraph) {
	t.Helper()
	e := mc.NewEngine()
	o := obs.New()
	ctx := obs.NewContext(context.Background(), o)
	if _, err := e.CheckContext(ctx, parent, neverMatches, opts); err != nil {
		t.Fatalf("parent: %v", err)
	}
	// A truncated child reports the budget error; its graph is cached.
	_, _ = e.CheckContext(ctx, child, neverMatches, opts)
	derived := o.Metrics().Counter("mc.derived_graphs").Value() == 1
	got := mc.GraphsByModel(e)[child.Fingerprint().Short()]
	if got == nil {
		t.Fatal("child graph not cached")
	}
	want, err := mc.BuildFresh(child, opts)
	if err != nil {
		t.Fatalf("fresh build: %v", err)
	}
	if err := mc.SameGraph(got, want); err != nil {
		t.Fatalf("derived %v graph differs from a fresh exploration: %v", derived, err)
	}
	if opts.MemBudget > 0 && (mc.SpilledSegments(got) == 0 || mc.SpilledSegments(want) == 0) {
		t.Fatalf("budget %d B: %d derived and %d fresh segments spilled, want both > 0",
			opts.MemBudget, mc.SpilledSegments(got), mc.SpilledSegments(want))
	}
	got.Release()
	want.Release()
	return derived, got
}

// refinement is one refined model CEGAR explored, the model it was
// cloned from, and the size of that model's graph.
type refinement struct {
	parent, child *ts.System
	parentStates  int
}

// refinements runs impl's catalogue on a cold engine and returns every
// refined model it derived, after checking each derived graph against
// a fresh exploration.
func refinements(t *testing.T, impl prochecker.Implementation) []refinement {
	t.Helper()
	e := mc.NewEngine()
	prev := mc.DefaultEngine
	mc.DefaultEngine = e
	t.Cleanup(func() { mc.DefaultEngine = prev })
	o := obs.New()
	a, err := prochecker.AnalyzeContext(context.Background(), impl, prochecker.WithWorkers(2), prochecker.WithObserver(o))
	if err != nil {
		t.Fatalf("%s: Analyze: %v", impl, err)
	}
	if _, err := a.CheckAll(); err != nil {
		t.Fatalf("%s: CheckAll: %v", impl, err)
	}
	graphs := mc.GraphsByModel(e)
	var out []refinement
	o.Manifest().Spans.Walk(func(n *obs.SpanNode) {
		if n.Name != "mc.explore" || n.Attrs["derived_from"] == "" {
			return
		}
		g, parent := graphs[n.Attrs["model"]], graphs[n.Attrs["derived_from"]]
		if g == nil || parent == nil {
			t.Fatalf("%s: model %s or its parent %s not cached", impl, n.Attrs["model"], n.Attrs["derived_from"])
		}
		want, err := mc.BuildFresh(g.Sys, mc.Options{MaxStates: g.MaxStates})
		if err != nil {
			t.Fatalf("%s: fresh build of %s: %v", impl, n.Attrs["model"], err)
		}
		if err := mc.SameGraph(g, want); err != nil {
			t.Errorf("%s: model %s derived from %s differs from a fresh exploration: %v",
				impl, n.Attrs["model"], n.Attrs["derived_from"], err)
		}
		want.Release()
		out = append(out, refinement{parent: g.Sys.Origin(), child: g.Sys, parentStates: parent.NumStates()})
	})
	return out
}

// TestDerivedGraphsMatchFresh: every refined model CEGAR reaches on the
// three profiles is derived from its parent's graph, and every derived
// graph equals a fresh exploration. The comparison is then repeated for
// one conformant refinement of each kind on a sharded exploration under
// a memory budget that forces both graphs to spill, and for the
// observation refinement under a state budget that lets the parent
// complete but cuts the derivation short. Under the race detector only
// the conformant profile runs: it drives the same engine paths, and the
// three profiles together take minutes there.
func TestDerivedGraphsMatchFresh(t *testing.T) {
	want := map[prochecker.Implementation]int{prochecker.Conformant: 5, prochecker.OAI: 7, prochecker.SRSLTE: 6}
	impls := []prochecker.Implementation{prochecker.Conformant, prochecker.OAI, prochecker.SRSLTE}
	if raceDetector {
		impls = impls[:1]
	}
	var conformant []refinement
	for _, impl := range impls {
		got := refinements(t, impl)
		if len(got) != want[impl] {
			t.Errorf("%s: %d derived models, want %d", impl, len(got), want[impl])
		}
		if impl == prochecker.Conformant {
			conformant = got
		}
	}

	var prune, observe *refinement
	for i, r := range conformant {
		if len(r.child.Vars()) == len(r.parent.Vars()) {
			prune = &conformant[i]
		} else {
			observe = &conformant[i]
		}
	}
	if prune == nil || observe == nil {
		t.Fatalf("conformant refinements lack a kind: prune %v, observe %v", prune != nil, observe != nil)
	}
	spilled := mc.Options{Shards: 4, Workers: 2, MemBudget: 64 << 10, SpillSegmentBytes: 16 << 10, SpillDir: t.TempDir()}
	for kind, r := range map[string]*refinement{"prune": prune, "observe": observe} {
		if derived, _ := deriveAndCompare(t, r.parent, r.child, spilled); !derived {
			t.Errorf("%s (sharded, spilled): not derived", kind)
		}
	}
	derived, g := deriveAndCompare(t, observe.parent, observe.child, mc.Options{MaxStates: observe.parentStates})
	if !derived || !g.Truncated {
		t.Errorf("observe refinement under its parent's budget %d: derived %v, truncated %v; want both",
			observe.parentStates, derived, g.Truncated)
	}
}

// counterSystem is a bounded counter with a reset and an idle toggle:
// small, several BFS levels, and a cycle.
func counterSystem(t *testing.T) *ts.System {
	t.Helper()
	sys := ts.NewSystem("counter")
	vals := []string{"0", "1", "2", "3", "4", "5"}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.AddVar("n", vals...))
	must(sys.AddVar("idle", "no", "yes"))
	for i := 0; i+1 < len(vals); i++ {
		must(sys.AddRule(ts.Rule{
			Name:    fmt.Sprintf("inc%d", i),
			Guard:   ts.Eq{Var: "n", Value: vals[i]},
			Assigns: []ts.Assign{{Var: "n", Value: vals[i+1]}},
			Tags:    map[string]string{"actor": "ue"},
		}))
	}
	must(sys.AddRule(ts.Rule{Name: "reset", Guard: ts.Eq{Var: "n", Value: "5"}, Assigns: []ts.Assign{{Var: "n", Value: "0"}}}))
	must(sys.AddRule(ts.Rule{Name: "doze", Guard: ts.Eq{Var: "idle", Value: "no"}, Assigns: []ts.Assign{{Var: "idle", Value: "yes"}}}))
	must(sys.AddRule(ts.Rule{Name: "wake", Guard: ts.Eq{Var: "idle", Value: "yes"}, Assigns: []ts.Assign{{Var: "idle", Value: "no"}}}))
	return sys
}

// observe is the GuardReplayOnObservation edit: inc2 records an
// observation, wake requires it (so a doze before inc2 lasts until
// then).
func observe(t *testing.T, sys *ts.System) {
	t.Helper()
	if err := sys.AddVar("obs", "0", "1"); err != nil {
		t.Fatal(err)
	}
	sys.MapRules(func(r ts.Rule) ts.Rule {
		switch r.Name {
		case "inc2":
			r.Assigns = append(append([]ts.Assign{}, r.Assigns...), ts.Assign{Var: "obs", Value: "1"})
		case "wake":
			r.Guard = ts.And{r.Guard, ts.Eq{Var: "obs", Value: "1"}}
		}
		return r
	})
}

// TestDerivationEdits: the two refinement edits are derived — also
// when a budget truncates the derivation — and every other edit takes
// the fresh path; both ways the graph equals a fresh exploration.
func TestDerivationEdits(t *testing.T) {
	cases := []struct {
		name    string
		edit    func(*ts.System)
		derived bool
	}{
		{"prune", func(s *ts.System) { s.RemoveRule("reset") }, true},
		{"prune-two", func(s *ts.System) { s.RemoveRule("inc0"); s.RemoveRule("wake") }, true},
		{"observe", func(s *ts.System) { observe(t, s) }, true},
		{"unedited", func(*ts.System) {}, false},
		{"add-rule", func(s *ts.System) {
			_ = s.AddRule(ts.Rule{Name: "skip", Guard: ts.Eq{Var: "n", Value: "0"}, Assigns: []ts.Assign{{Var: "n", Value: "3"}}})
		}, false},
		{"set-init", func(s *ts.System) { _ = s.SetInit("n", "2") }, false},
		{"tighten-existing-var", func(s *ts.System) {
			s.MapRules(func(r ts.Rule) ts.Rule {
				if r.Name == "doze" {
					r.Guard = ts.And{r.Guard, ts.Eq{Var: "n", Value: "1"}}
				}
				return r
			})
		}, false},
		{"reorder", func(s *ts.System) {
			wake, _ := s.RuleByName("wake")
			s.RemoveRule("wake")
			doze, _ := s.RuleByName("doze")
			s.RemoveRule("doze")
			_ = s.AddRule(wake)
			_ = s.AddRule(doze)
		}, false},
		{"retag", func(s *ts.System) {
			s.MapRules(func(r ts.Rule) ts.Rule {
				if r.Name == "inc1" {
					r.Tags = map[string]string{"actor": "adv"}
				}
				return r
			})
		}, false},
		{"two-vars", func(s *ts.System) {
			observe(t, s)
			_ = s.AddVar("obs2", "0", "1")
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, opts := range []mc.Options{{}, {MaxStates: 12}} {
				base := counterSystem(t)
				child := base.Clone()
				tc.edit(child)
				derived, g := deriveAndCompare(t, base, child, opts)
				if derived != tc.derived {
					t.Errorf("budget %d: derived = %v, want %v", opts.MaxStates, derived, tc.derived)
				}
				// The observation product (18 states) outgrows the
				// parent's 12: the budget cuts the derivation short.
				if tc.name == "observe" && opts.MaxStates > 0 && !g.Truncated {
					t.Errorf("budget %d: observe derivation not truncated", opts.MaxStates)
				}
			}
		})
	}
}
