// Derived graphs: a CEGAR refinement of an explored model reaches a
// graph computable from the parent's cached graph alone. A PruneRule
// refinement keeps a subset of the parent's edges; a
// GuardReplayOnObservation refinement is the product of the parent
// graph with one appended variable (ts.Restriction). deriveGraph walks
// that product breadth-first over (parent state id, appended value)
// pairs resolved through a dense index: edges come from the parent's
// rule-ordered adjacency with rule indices remapped, so no guard is
// evaluated and no state is hashed into an index, yet states are
// discovered in exactly the order buildGraph's FIFO BFS discovers them.
// State ids, the parent tree, edge order and truncation therefore match
// a fresh exploration byte for byte, and traces built from the derived
// graph stay identical to CheckSequential's.
package mc

import (
	"context"
	"fmt"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
)

// derivedNode is one refined state by origin: the parent graph's state
// id and the appended variable's value (0 without one).
type derivedNode struct {
	p int32
	x uint8
}

// deriveGraph builds sys's reachability graph from parent, the complete
// graph of the system sys restricts by r, under opts' state budget and
// memory budget. Its "mc.explore" span names the parent's fingerprint
// as "derived_from". It writes no snapshot: a resumed run re-derives
// the graph from its resumed parent.
func deriveGraph(ctx context.Context, parent *StateGraph, sys *ts.System, r ts.Restriction, opts Options) (graph *StateGraph, err error) {
	reg := obs.FromContext(ctx).Metrics()
	_, finish := startExplore(ctx, sys, obs.A("derived_from", parent.Sys.Fingerprint().Short()))
	defer func() { finish(graph, err) }()

	rules, err := sys.CompileRules()
	if err != nil {
		return nil, err
	}
	g := &StateGraph{
		Sys: sys, Rules: rules, MaxStates: opts.maxStates(),
		arena:      newStateArena(len(sys.Vars()), opts.SpillSegmentBytes),
		spillReads: reg.Counter("mc.spill_reads"),
	}
	spillBytes := reg.Counter("mc.spill_bytes")
	peakBytes := reg.Gauge("mc.peak_resident_state_bytes")
	bus, scope := obs.FromContext(ctx).Bus(), obs.ScopeFromContext(ctx)

	// index maps (parent id, value) to the refined state's id.
	index := make([]int32, parent.NumStates()*r.Width)
	for i := range index {
		index[i] = -1
	}
	indexBytes := int64(4 * len(index))
	var buf []byte
	var next []derivedNode
	intern := func(n derivedNode, from, rule int32) (int32, error) {
		slot := int(n.p)*r.Width + int(n.x)
		if id := index[slot]; id >= 0 {
			return id, nil
		}
		s, err := parent.StateAt(n.p)
		if err != nil {
			return 0, err
		}
		buf = append(buf[:0], s...)
		if r.Var >= 0 {
			buf = append(buf, n.x)
		}
		id, err := g.arena.append(buf, hashState(buf))
		if err != nil {
			return 0, err
		}
		g.adj = append(g.adj, nil)
		g.parentState = append(g.parentState, from)
		g.parentRule = append(g.parentRule, rule)
		index[slot] = id
		next = append(next, n)
		return id, nil
	}
	defer func() {
		if err != nil {
			g.Release()
		}
	}()

	if _, err := intern(derivedNode{p: 0, x: r.Init}, -1, -1); err != nil {
		return nil, err
	}
	// The frontier of each level is the contiguous id range the previous
	// level interned, so frontier position k is state first+k.
	var row []graphEdge
	first, level := int32(0), 0
	for len(next) > 0 {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("mc: deriving %s after %d states: %w",
				sys.Name, g.NumStates(), resilience.ErrCancelled)
		}
		if g.NumStates() > g.MaxStates {
			g.Truncated = true
			break
		}
		frontier := next
		next = nil
		for k, n := range frontier {
			from := first + int32(k)
			row = row[:0]
			for _, ed := range parent.adj[n.p] {
				ri := r.Rule[ed.rule]
				if ri < 0 {
					continue
				}
				x := n.x
				if r.Var >= 0 {
					if want := r.Require[ed.rule]; want >= 0 && int(x) != want {
						continue
					}
					if set := r.Set[ed.rule]; set >= 0 {
						x = uint8(set)
					}
				}
				to, err := intern(derivedNode{p: ed.to, x: x}, from, ri)
				if err != nil {
					return nil, err
				}
				row = append(row, graphEdge{rule: ri, to: to})
			}
			g.adj[from] = append(make([]graphEdge, 0, len(row)), row...)
		}
		first += int32(len(frontier))
		level++
		if err := g.levelDone(opts, indexBytes, spillBytes, peakBytes); err != nil {
			return nil, err
		}
		publishLevel(bus, scope, g, level, len(next))
	}
	reg.Counter("mc.derived_graphs").Inc()
	return g, nil
}
