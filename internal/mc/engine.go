// The shared-frontier engine: property checks discharged on a cached
// StateGraph. Invariant and NeverFires become single ordered passes over
// the interned graph; Response reuses the interned states and edges for
// its pending-product lasso search. The cache is keyed by the model's
// structural fingerprint (ts.System.Fingerprint) and the state budget,
// so every system with the same structure — the composed model and
// each of its clones, or two properties' identically refined models —
// shares one exploration, and any edit to a system moves it to another
// key. A cached graph builds its traces from the system that was
// explored first; callers must therefore never edit a system once it
// has been checked (CEGAR refines a fresh clone each time). A miss on
// a clone whose origin's complete graph is cached under the same
// budget derives the clone's graph from it (derive.go) when the clone
// only removes rules or adds one observation variable.
package mc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"prochecker/internal/dataflow"
	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
)

// DefaultEngine backs the package-level Check/CheckAll entry points. A
// process-wide cache is safe: entries are keyed by model fingerprint and
// state budget, bounded by engineCacheEntries, and concurrent builds of
// the same graph are collapsed into one. A hit therefore means a model
// that was already explored or is being explored — the unrefined
// composed model, or a refined model another property reached first.
var DefaultEngine = NewEngine()

// engineCacheEntries bounds the graph cache; the oldest entry is evicted
// beyond it. A CEGAR catalogue run keeps one graph per distinct refined
// model (7 on srsLTE), which stays far below this.
const engineCacheEntries = 32

// graphKey identifies one exploration: the model and the state budget
// it was explored under (a truncated graph must not answer a check
// with a larger budget).
type graphKey struct {
	model     ts.Fingerprint
	maxStates int
}

// graphEntry is one cache slot; ready is closed when the build finishes.
type graphEntry struct {
	ready chan struct{}
	graph *StateGraph
	err   error
}

// Engine checks properties against cached shared-exploration graphs.
type Engine struct {
	mu        sync.Mutex
	cache     map[graphKey]*graphEntry
	order     []graphKey // insertion order for eviction
	hits      int
	builds    int
	evictions int
	// reach memoizes the vacuity pre-pass's static reachability per
	// model, cleared wholesale once it holds engineCacheEntries models.
	reach map[ts.Fingerprint]*dataflow.RuleReach
}

// NewEngine returns an engine with an empty graph cache. Most callers
// should use the package-level functions (and thus DefaultEngine);
// benchmarks build fresh engines to time cold explorations.
func NewEngine() *Engine {
	return &Engine{
		cache: make(map[graphKey]*graphEntry),
		reach: make(map[ts.Fingerprint]*dataflow.RuleReach),
	}
}

// Vacuous is the static vacuity pre-pass: it reports whether prop holds
// vacuously on sys — its trigger matches no statically-fireable rule —
// with the static witness to record in place of a trace. The abstract
// reachability fixpoint is computed once per model fingerprint, the
// identity the graph cache uses. Options.NoVacuityPrune turns the
// pre-pass off: nothing is vacuous.
func (e *Engine) Vacuous(sys *ts.System, prop Property, opts Options) (bool, string) {
	if opts.NoVacuityPrune {
		return false, ""
	}
	model := sys.Fingerprint()
	e.mu.Lock()
	reach := e.reach[model]
	e.mu.Unlock()
	if reach == nil {
		// Computed outside the lock: the fixpoint is deterministic, so a
		// concurrent duplicate is wasted work, never a wrong answer.
		reach = StaticReach(sys)
		e.mu.Lock()
		if len(e.reach) >= engineCacheEntries {
			clear(e.reach)
		}
		e.reach[model] = reach
		e.mu.Unlock()
	}
	return Vacuous(reach, sys, prop)
}

// CacheStats reports cache hits (a check served by an already-built or
// in-flight graph) and builds (explorations actually run).
func (e *Engine) CacheStats() (hits, builds int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.builds
}

// CacheCounters reports the full cache-effectiveness triple: hits,
// misses (= graph builds) and evictions of the bounded LRU order — the
// numbers the BENCH_mc series and the obs registry record.
func (e *Engine) CacheCounters() (hits, misses, evictions int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.builds, e.evictions
}

// graphFor returns the cached graph for the system's model, building it
// (once, even under concurrent callers) when missing; shared reports
// whether the graph came from the cache. A waiter whose shared build was
// cancelled under another caller's context builds the graph itself.
func (e *Engine) graphFor(ctx context.Context, sys *ts.System, opts Options) (*StateGraph, bool, error) {
	key := graphKey{model: sys.Fingerprint(), maxStates: opts.maxStates()}
	parentKey := key
	if origin := sys.Origin(); origin != nil {
		parentKey.model = origin.Fingerprint()
	}
	reg := obs.FromContext(ctx).Metrics()
	for {
		e.mu.Lock()
		ent := e.cache[key]
		if ent == nil {
			break // still locked: this caller builds
		}
		e.hits++
		e.mu.Unlock()
		reg.Counter("mc.graph_cache_hits").Inc()
		select {
		case <-ent.ready:
		case <-ctx.Done():
			return nil, true, fmt.Errorf("mc: waiting for shared exploration: %w", resilience.ErrCancelled)
		}
		if resilience.Cancelled(ent.err) && ctx.Err() == nil {
			continue
		}
		return ent.graph, true, ent.err
	}
	ent := &graphEntry{ready: make(chan struct{})}
	e.cache[key] = ent
	e.order = append(e.order, key)
	if len(e.order) > engineCacheEntries {
		delete(e.cache, e.order[0])
		e.order = e.order[1:]
		e.evictions++
		reg.Counter("mc.graph_cache_evictions").Inc()
	}
	e.builds++
	parent := e.readyGraph(parentKey)
	e.mu.Unlock()
	reg.Counter("mc.graph_cache_misses").Inc()

	ent.graph, ent.err = build(ctx, parent, sys, opts)
	if ent.err != nil {
		// Do not poison the cache: a cancelled or failed build must not
		// answer later calls that arrive with a live context.
		e.mu.Lock()
		if e.cache[key] == ent {
			delete(e.cache, key)
			for i, k := range e.order {
				if k == key {
					e.order = append(e.order[:i], e.order[i+1:]...)
					break
				}
			}
		}
		e.mu.Unlock()
	}
	close(ent.ready)
	return ent.graph, false, ent.err
}

// readyGraph returns the finished, complete graph cached under key, or
// nil when there is none (missing, still building, failed, truncated,
// or key is the model being built). Callers hold e.mu.
func (e *Engine) readyGraph(key graphKey) *StateGraph {
	ent := e.cache[key]
	if ent == nil {
		return nil
	}
	select {
	case <-ent.ready:
	default:
		return nil
	}
	if ent.err != nil || ent.graph == nil || ent.graph.Truncated {
		return nil
	}
	return ent.graph
}

// build derives sys's graph from parent — the cached graph of the
// system sys was cloned from — when sys is a restriction of it the
// derivation understands (ts.RestrictionOf), and explores it from
// scratch otherwise.
func build(ctx context.Context, parent *StateGraph, sys *ts.System, opts Options) (*StateGraph, error) {
	if parent != nil {
		if r, ok := ts.RestrictionOf(parent.Sys, sys); ok {
			return deriveGraph(ctx, parent, sys, r, opts)
		}
	}
	return buildGraph(ctx, sys, opts)
}

// CheckContext verifies one property on the shared graph. Exploration
// that hits Options.MaxStates returns the truncated Result alongside an
// error wrapping resilience.ErrBudgetExhausted; cancellation returns an
// error wrapping resilience.ErrCancelled.
func (e *Engine) CheckContext(ctx context.Context, sys *ts.System, prop Property, opts Options) (Result, error) {
	res, _, err := e.CheckShared(ctx, sys, prop, opts)
	return res, err
}

// CheckShared is CheckContext that also reports whether the check was
// answered from a graph already built or being built (shared) instead
// of running the exploration itself.
func (e *Engine) CheckShared(ctx context.Context, sys *ts.System, prop Property, opts Options) (Result, bool, error) {
	res := Result{Property: prop.Name(), Kind: prop.kind()}
	if reg := obs.FromContext(ctx).Metrics(); reg != nil {
		start := time.Now()
		defer func() {
			reg.Histogram("mc.check_ms", nil).Observe(obs.DurMS(time.Since(start)))
			reg.Counter("mc.checks").Inc()
		}()
	}
	g, shared, err := e.graphFor(ctx, sys, opts)
	if err != nil {
		if resilience.Cancelled(err) {
			return res, shared, err
		}
		// Rule compilation failed: same unverified result the sequential
		// checker reports, with the cause attached instead of swallowed.
		return res, shared, fmt.Errorf("mc: checking %s: %w", prop.Name(), err)
	}
	switch p := prop.(type) {
	case Invariant:
		res, err = g.checkInvariant(p)
	case NeverFires:
		res = g.checkNeverFires(p)
	case Response:
		res, err = g.checkResponse(p, opts)
	default:
		return res, shared, nil
	}
	if err != nil {
		// A spilled-segment read failed mid-check; surface the I/O error
		// rather than an unfounded verdict.
		return res, shared, fmt.Errorf("mc: checking %s: %w", prop.Name(), err)
	}
	if res.Truncated {
		return res, shared, fmt.Errorf("mc: checking %s: exploration truncated at %d states (budget %d): %w",
			prop.Name(), res.StatesExplored, opts.maxStates(), resilience.ErrBudgetExhausted)
	}
	return res, shared, nil
}

// CheckAll verifies the properties concurrently, results in order.
func (e *Engine) CheckAll(sys *ts.System, props []Property, opts Options) []Result {
	out, _ := e.CheckAllContext(context.Background(), sys, props, opts)
	return out
}

// CheckAllContext fans the property list out over the catalogue runner
// (Options.Workers bounds it), sharing one exploration and discharging
// statically vacuous properties through Vacuous without exploring. The
// result slice is indexed 1:1 with props — ordering is deterministic
// regardless of worker interleaving — and the aggregated error collects
// per-property budget exhaustion plus a single cancellation entry when
// the walk was cut short.
func (e *Engine) CheckAllContext(ctx context.Context, sys *ts.System, props []Property, opts Options) ([]Result, error) {
	out := make([]Result, len(props))
	reg := obs.FromContext(ctx).Metrics()
	items, stopped := resilience.RunCatalogue(ctx, len(props), opts.Workers, func(ctx context.Context, i int) error {
		if v, witness := e.Vacuous(sys, props[i], opts); v {
			out[i] = vacuousResult(props[i], witness)
			reg.Counter("mc.vacuity_pruned").Inc()
			return nil
		}
		var err error
		out[i], err = e.CheckContext(ctx, sys, props[i], opts)
		return err
	})
	var errs resilience.Collector
	for _, it := range items {
		if it.Err != nil && !resilience.Cancelled(it.Err) {
			errs.Add(it.Err) // truncated results still carry a (partial) verdict
		}
	}
	if stopped != nil {
		errs.Add(fmt.Errorf("mc: %w", stopped))
	}
	return out, errs.Err()
}

// checkInvariant discharges AG p in one ordered pass over the graph: the
// first state (in BFS intern order) violating the predicate is exactly
// the state the sequential explorer would have flagged, so the parent
// tree yields a byte-identical shortest counterexample. The pass streams
// the arena, so spilled segments are loaded once each, in order.
func (g *StateGraph) checkInvariant(p Invariant) (Result, error) {
	res := Result{Property: p.PropName, Kind: "invariant"}
	holds, err := g.Sys.CompileCond(p.Holds)
	if err != nil {
		return res, nil
	}
	violation := int32(-1)
	if err := g.forEachState(0, func(id int32, s ts.State) bool {
		if !holds(s) {
			violation = id
			return false
		}
		return true
	}); err != nil {
		return res, err
	}
	switch {
	case violation == 0:
		res.Counterexample = buildTrace(g.Sys, nil, -1)
		return res, nil
	case violation > 0:
		res.StatesExplored = int(violation) + 1
		res.Counterexample = buildTrace(g.Sys, g.pathTo(violation), -1)
		return res, nil
	}
	res.StatesExplored = g.NumStates()
	if g.Truncated {
		res.Truncated = true
		return res, nil
	}
	res.Verified = true
	return res, nil
}

// checkNeverFires scans states in BFS order and their edges in rule
// order — the sequential dequeue order — so the first matching firing
// and its counterexample are identical to the per-property exploration.
func (g *StateGraph) checkNeverFires(p NeverFires) Result {
	res := Result{Property: p.PropName, Kind: "never-fires"}
	// Precompile the match verdict per rule once; the pattern is a pure
	// function of the rule name, so no name is re-matched per state.
	matched := make([]bool, len(g.Rules))
	any := false
	for i := range g.Rules {
		matched[i] = p.Match(g.Rules[i].Name)
		any = any || matched[i]
	}
	if any {
		for id := range g.adj {
			for _, ed := range g.adj[id] {
				if !matched[ed.rule] {
					continue
				}
				res.StatesExplored = g.statesWhenProcessing(int32(id), ed.rule)
				path := append(g.pathTo(int32(id)), g.Rules[ed.rule].Name)
				res.Counterexample = buildTrace(g.Sys, path, -1)
				return res
			}
		}
	}
	res.StatesExplored = g.NumStates()
	if g.Truncated {
		res.Truncated = true
		return res
	}
	res.Verified = true
	return res
}

// checkResponse runs the pending-product lasso search over the interned
// graph: product nodes are (state id, pending) pairs resolved through a
// dense index instead of re-interning states, and edges come from the
// precomputed adjacency, so no guard is re-evaluated and no state is
// re-hashed. Product edges are never stored: product edge i of node
// (sid, pending) is graph edge i of sid with the pending bit advanced,
// recomputed wherever the search needs it. The product BFS and the
// pending-region DFS mirror the sequential implementation exactly.
func (g *StateGraph) checkResponse(p Response, opts Options) (Result, error) {
	res := Result{Property: p.PropName, Kind: "response"}
	if g.Truncated {
		// Missing adjacency beyond the frontier would masquerade as
		// deadlocks; a truncated graph cannot support the liveness search.
		res.Truncated = true
		res.StatesExplored = g.NumStates()
		return res, nil
	}
	trigger := make([]bool, len(g.Rules))
	goal := make([]bool, len(g.Rules))
	for i := range g.Rules {
		trigger[i] = p.Trigger(g.Rules[i].Name)
		if p.Goal != nil {
			goal[i] = p.Goal(g.Rules[i].Name)
		}
	}
	var goalSat []bool
	if p.GoalState != nil {
		f, err := g.Sys.CompileCond(p.GoalState)
		if err != nil {
			return res, nil
		}
		goalSat = make([]bool, g.NumStates())
		if err := g.forEachState(0, func(id int32, s ts.State) bool {
			goalSat[id] = f(s)
			return true
		}); err != nil {
			return res, err
		}
	}
	// step advances the pending bit along a graph edge.
	step := func(pending bool, ed graphEdge) bool {
		if trigger[ed.rule] {
			pending = true
		}
		if goal[ed.rule] {
			pending = false
		}
		if pending && goalSat != nil && goalSat[ed.to] {
			pending = false
		}
		return pending
	}

	// Product interning: node id per (state id, pending bit), dense.
	nodeID := make([]int32, 2*g.NumStates())
	for i := range nodeID {
		nodeID[i] = -1
	}
	slot := func(sid int32, pending bool) int32 {
		if pending {
			return 2*sid + 1
		}
		return 2 * sid
	}
	type pnode struct {
		sid     int32
		pending bool
	}
	var nodes []pnode
	parent := []int32{-1}
	parentRule := []int32{-1}

	internNode := func(n pnode, from, rule int32) (int32, bool) {
		sl := slot(n.sid, n.pending)
		if id := nodeID[sl]; id >= 0 {
			return id, false
		}
		id := int32(len(nodes))
		nodeID[sl] = id
		nodes = append(nodes, n)
		if id > 0 {
			parent = append(parent, from)
			parentRule = append(parentRule, rule)
		}
		return id, true
	}

	startID, _ := internNode(pnode{sid: 0, pending: false}, -1, -1)
	queue := []int32{startID}
	maxStates := opts.maxStates()
	for len(queue) > 0 {
		if len(nodes) > maxStates {
			res.Truncated = true
			res.StatesExplored = len(nodes)
			return res, nil
		}
		id := queue[0]
		queue = queue[1:]
		n := nodes[id]
		for _, ed := range g.adj[n.sid] {
			nid, fresh := internNode(pnode{sid: ed.to, pending: step(n.pending, ed)}, id, ed.rule)
			if fresh {
				queue = append(queue, nid)
			}
		}
	}
	res.StatesExplored = len(nodes)

	// nodePath reconstructs the rule path from the product start to id.
	nodePath := func(id int32) []string {
		var rev []string
		for cur := id; cur > 0 && parent[cur] >= 0; cur = parent[cur] {
			rev = append(rev, g.Rules[parentRule[cur]].Name)
		}
		out := make([]string, len(rev))
		for i := range rev {
			out[i] = rev[len(rev)-1-i]
		}
		return out
	}

	// Search the pending subgraph for a cycle or deadlock.
	// colour: 0 unvisited, 1 on stack, 2 done.
	colour := make([]uint8, len(nodes))
	type frame struct {
		id   int32
		next int
	}
	for rootID := range nodes {
		if !nodes[rootID].pending || colour[rootID] != 0 {
			continue
		}
		stack := []frame{{id: int32(rootID)}}
		colour[rootID] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			edges := g.adj[nodes[f.id].sid]
			if len(edges) == 0 {
				path := nodePath(f.id)
				res.Counterexample = buildTrace(g.Sys, path, len(path))
				return res, nil
			}
			advanced := false
			for f.next < len(edges) {
				ed := edges[f.next]
				f.next++
				if !step(true, ed) {
					continue // leaving the pending region discharges along this edge
				}
				to := nodeID[slot(ed.to, true)]
				switch colour[to] {
				case 1:
					path := nodePath(f.id)
					loopEntry := len(nodePath(to))
					if loopEntry > len(path) {
						loopEntry = len(path)
					}
					full := append(path, g.Rules[ed.rule].Name)
					res.Counterexample = buildTrace(g.Sys, full, loopEntry)
					return res, nil
				case 0:
					colour[to] = 1
					stack = append(stack, frame{id: to})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced {
				colour[f.id] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
	res.Verified = true
	return res, nil
}

// ErrBudgetExhausted re-exports the resilience sentinel that CheckContext
// attaches to truncated explorations, so callers can errors.Is against
// the mc package alone.
var ErrBudgetExhausted = resilience.ErrBudgetExhausted

// IsBudgetExhausted reports whether err marks a truncated exploration.
func IsBudgetExhausted(err error) bool { return errors.Is(err, resilience.ErrBudgetExhausted) }
