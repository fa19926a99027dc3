package mc

import (
	"bytes"
	"context"
	"fmt"

	"prochecker/internal/ts"
)

// GraphsByModel returns the engine's finished graphs keyed by the short
// fingerprint of their model (the "model" attribute of mc.explore
// spans).
func GraphsByModel(e *Engine) map[string]*StateGraph {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]*StateGraph, len(e.cache))
	for key, ent := range e.cache {
		select {
		case <-ent.ready:
			if ent.graph != nil {
				out[key.model.Short()] = ent.graph
			}
		default:
		}
	}
	return out
}

// BuildFresh explores sys from scratch with the level-synchronised
// explorer, bypassing every cache and derivation.
func BuildFresh(sys *ts.System, opts Options) (*StateGraph, error) {
	return buildGraph(context.Background(), sys, opts)
}

// SameGraph reports the first difference between two graphs in state
// bytes, adjacency (nil rows included), the parent tree, truncation and
// budget, or nil when they are identical.
func SameGraph(got, want *StateGraph) error {
	if got.NumStates() != want.NumStates() {
		return fmt.Errorf("%d states, want %d", got.NumStates(), want.NumStates())
	}
	if got.Truncated != want.Truncated || got.MaxStates != want.MaxStates {
		return fmt.Errorf("truncated %v at budget %d, want %v at %d",
			got.Truncated, got.MaxStates, want.Truncated, want.MaxStates)
	}
	if len(got.Rules) != len(want.Rules) {
		return fmt.Errorf("%d rules, want %d", len(got.Rules), len(want.Rules))
	}
	for id := int32(0); id < int32(want.NumStates()); id++ {
		a, err := got.StateAt(id)
		if err != nil {
			return err
		}
		b, err := want.StateAt(id)
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("state %d = %v, want %v", id, a, b)
		}
		if got.parentState[id] != want.parentState[id] || got.parentRule[id] != want.parentRule[id] {
			return fmt.Errorf("state %d reached by (%d, %d), want (%d, %d)", id,
				got.parentState[id], got.parentRule[id], want.parentState[id], want.parentRule[id])
		}
		ga, wa := got.adj[id], want.adj[id]
		if (ga == nil) != (wa == nil) || len(ga) != len(wa) {
			return fmt.Errorf("state %d: %d edges (nil %v), want %d (nil %v)", id, len(ga), ga == nil, len(wa), wa == nil)
		}
		for i := range wa {
			if ga[i] != wa[i] {
				return fmt.Errorf("state %d edge %d = %+v, want %+v", id, i, ga[i], wa[i])
			}
		}
	}
	return nil
}

// SpilledSegments counts the graph's arena segments that live on disk.
func SpilledSegments(g *StateGraph) int {
	n := 0
	for _, seg := range g.arena.segs {
		if seg.spilled {
			n++
		}
	}
	return n
}
