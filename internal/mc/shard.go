// The sharded level-synchronised explorer. Each BFS level runs in four
// phases: (1) workers expand frontier chunks in parallel against the
// frozen shard indexes; (2) a serial handoff pass routes every successor
// to its hash-owned shard in canonical (frontier position, edge) order;
// (3) shards dedup their routed candidates in parallel, interning fresh
// states as pending index entries; (4) a serial merge walks candidates
// in canonical order assigning global ids — exactly the sequential
// explorer's intern order, so state ids, the parent tree and
// counterexample traces stay byte-identical to CheckSequential for every
// shard count and memory budget. Level boundaries are also where arena
// segments spill under the memory budget and snapshots are checkpointed.
package mc

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"prochecker/internal/obs"
	"prochecker/internal/resilience"
	"prochecker/internal/ts"
)

// candidate is one enabled transition discovered by a worker: the rule
// index and the successor — resolved to an id when the frozen indexes
// already contain it, carried as packed state plus hash otherwise.
type candidate struct {
	rule int32
	id   int32 // >= 0 once resolved
	pend int32 // owner-shard pending index while id < 0 (set by dedup)
	hash uint64
	next ts.State // retained only while unresolved
}

// candRef addresses one unresolved candidate inside a level's
// position-indexed candidate matrix.
type candRef struct{ pos, ci int32 }

// pendingEntry is a state first reached this level: its canonically
// first occurrence, the index slot holding its pending marker, and the
// global id the merge assigns.
type pendingEntry struct {
	ref  candRef
	slot int32
	id   int32
}

// levelExplorer carries one buildGraph invocation's exploration state.
type levelExplorer struct {
	g     *StateGraph
	opts  Options
	rules []ts.CompiledRule
	model ts.Fingerprint // names and validates snapshots

	shards []*stateIndex
	mask   uint64 // shard selector over the low hash bits

	frontier []int32
	fOwners  []uint8 // owner shard per frontier position
	level    int     // completed levels

	reg        *obs.Registry
	bus        *obs.Bus
	scope      string // job scope for progress events (see obs.WithScope)
	width      []*obs.Histogram
	occupancy  []*obs.Gauge
	handoff    []*obs.Counter
	spillBytes *obs.Counter
	peakBytes  *obs.Gauge
}

// buildGraph explores the system with the sharded level-synchronised
// worker pool and returns the interned reachability graph.
//
// Observability: each build is one "mc.explore" span carrying the
// model's short fingerprint as its "model" attribute; the registry's
// mc.* instruments are resolved once up front (all nil-safe no-ops when
// no observer rides the context). Frontier width and visited-set size
// are per-shard labelled instruments; spill and peak-residency numbers
// are global.
func buildGraph(ctx context.Context, sys *ts.System, opts Options) (graph *StateGraph, err error) {
	reg := obs.FromContext(ctx).Metrics()
	model := sys.Fingerprint()
	_, span := obs.Start(ctx, "mc.explore", obs.A("system", sys.Name), obs.A("model", model.Short()))
	buildStart := time.Now()
	defer func() {
		if graph != nil {
			n := graph.NumStates()
			reg.Counter("mc.states_explored").Add(int64(n))
			reg.Counter("mc.explorations").Inc()
			if elapsed := time.Since(buildStart); elapsed > 0 {
				reg.Gauge("mc.states_per_sec").Set(int64(float64(n) / elapsed.Seconds()))
			}
			span.SetAttr("states", strconv.Itoa(n))
			span.SetAttr("truncated", strconv.FormatBool(graph.Truncated))
		}
		span.EndErr(err)
	}()

	rules, err := sys.CompileRules()
	if err != nil {
		return nil, err
	}
	init := sys.InitialState()
	nShards := opts.shardCount()
	span.SetAttr("shards", strconv.Itoa(nShards))
	e := &levelExplorer{
		g: &StateGraph{
			Sys: sys, Rules: rules, MaxStates: opts.maxStates(),
			arena:      newStateArena(len(init), opts.SpillSegmentBytes),
			spillReads: reg.Counter("mc.spill_reads"),
		},
		opts:   opts,
		rules:  rules,
		model:  model,
		shards: make([]*stateIndex, nShards),
		mask:   uint64(nShards - 1),
		reg:    reg,
		bus:    obs.FromContext(ctx).Bus(),
		scope:  obs.ScopeFromContext(ctx),
	}
	for k := range e.shards {
		e.shards[k] = newStateIndex()
	}
	e.width = make([]*obs.Histogram, nShards)
	e.occupancy = make([]*obs.Gauge, nShards)
	e.handoff = make([]*obs.Counter, nShards)
	for k := 0; k < nShards; k++ {
		e.width[k] = reg.Histogram(obs.Labeled("mc.frontier_width", "shard", k), nil)
		e.occupancy[k] = reg.Gauge(obs.Labeled("mc.visited_states", "shard", k))
		e.handoff[k] = reg.Counter(obs.Labeled("mc.handoff_states", "shard", k))
	}
	e.spillBytes = reg.Counter("mc.spill_bytes")
	e.peakBytes = reg.Gauge("mc.peak_resident_state_bytes")

	resumed := false
	if opts.SnapshotDir != "" {
		lvl, ok, rerr := e.tryResume()
		if rerr != nil {
			return nil, rerr
		}
		if ok {
			resumed = true
			reg.Gauge("mc.resume_level").Set(int64(lvl))
			span.SetAttr("resume_level", strconv.Itoa(lvl))
		}
	}
	if !resumed {
		if err := e.internInitial(init); err != nil {
			return nil, err
		}
	}
	if err := e.run(ctx); err != nil {
		e.g.Release()
		return nil, err
	}
	return e.g, nil
}

// internInitial seeds the arena, index and frontier with state 0. The
// fresh 64-slot owner table trivially fits one entry.
func (e *levelExplorer) internInitial(init ts.State) error {
	h := hashState(init)
	id, err := e.g.arena.append(init, h)
	if err != nil {
		return err
	}
	e.g.adj = append(e.g.adj, nil)
	e.g.parentState = append(e.g.parentState, -1)
	e.g.parentRule = append(e.g.parentRule, -1)
	k := int(h & e.mask)
	x := e.shards[k]
	_, pos, _ := x.probe(h, func(int32) (bool, error) { return false, nil })
	x.set(pos, id+1)
	e.frontier = []int32{id}
	e.fOwners = []uint8{uint8(k)}
	return nil
}

// ensureShard grows shard k's index until extra more inserts stay under
// 3/4 load, so a dedup phase never rehashes mid-flight (recorded
// pending slot positions must stay stable). The index stores no hashes,
// so growth re-derives every position by re-hashing the states
// themselves in one sequential arena pass — safe to run per-shard in
// parallel (spilled reads go through ReadAt) because between levels
// every slot is a committed id, and exactly the arena states hashing to
// shard k are in its table.
func (e *levelExplorer) ensureShard(k, extra int) error {
	x := e.shards[k]
	if (x.used+extra)*4 < len(x.slots)*3 {
		return nil
	}
	size := len(x.slots)
	for (x.used+extra)*4 >= size*3 {
		size <<= 1
	}
	slots := make([]int32, size)
	mask := size - 1
	err := e.g.arena.forEach(0, func(id int32, s []byte) bool {
		h := hashState(ts.State(s))
		if h&e.mask != uint64(k) {
			return true
		}
		pos := int(h>>indexShardBits) & mask
		for slots[pos] != 0 {
			pos = (pos + 1) & mask
		}
		slots[pos] = id + 1
		return true
	})
	if err != nil {
		return err
	}
	x.slots = slots
	return nil
}

// run drives the level loop until the frontier drains, the budget
// truncates or the context is cancelled.
func (e *levelExplorer) run(ctx context.Context) error {
	g := e.g
	workers := e.opts.workers()
	for len(e.frontier) > 0 {
		if ctx.Err() != nil {
			return fmt.Errorf("mc: exploration of %s after %d states: %w",
				g.Sys.Name, g.NumStates(), resilience.ErrCancelled)
		}
		if g.NumStates() > g.MaxStates {
			g.Truncated = true
			return nil
		}
		e.observeWidths()

		cands, err := e.expandFrontier(workers)
		if err != nil {
			return err
		}
		refs := e.routeCandidates(cands)
		pend, err := e.dedupShards(cands, refs)
		if err != nil {
			return err
		}
		if err := e.mergeLevel(cands, pend); err != nil {
			return err
		}
		if err := e.endOfLevel(); err != nil {
			return err
		}
	}
	return nil
}

// observeWidths records this level's frontier width per owner shard.
func (e *levelExplorer) observeWidths() {
	if len(e.shards) == 1 {
		e.width[0].Observe(float64(len(e.frontier)))
		return
	}
	counts := make([]int, len(e.shards))
	for _, k := range e.fOwners {
		counts[k]++
	}
	for k, n := range counts {
		e.width[k].Observe(float64(n))
	}
}

// lookupFrozen resolves a successor against the (frozen) owner-shard
// index during the parallel phase: committed entries only, read-only.
func (e *levelExplorer) lookupFrozen(h uint64, s ts.State) (int32, error) {
	x := e.shards[h&e.mask]
	v, _, err := x.probe(h, func(v int32) (bool, error) {
		if v <= 0 {
			return false, nil // pending markers never survive a level
		}
		return e.g.arena.confirm(v-1, s, h, e.g.spillReads)
	})
	if err != nil || v <= 0 {
		return -1, err
	}
	return v - 1, nil
}

// expandFrontier is phase 1: workers expand contiguous frontier chunks
// into a position-indexed candidate matrix — no locks, no ordering
// races, every shard index frozen.
func (e *levelExplorer) expandFrontier(workers int) ([][]candidate, error) {
	g := e.g
	frontier := e.frontier
	cands := make([][]candidate, len(frontier))
	expand := func(id int32) ([]candidate, error) {
		cur, err := g.StateAt(id)
		if err != nil {
			return nil, err
		}
		var out []candidate
		for ri := range e.rules {
			r := &e.rules[ri]
			if !r.Enabled(cur) {
				continue
			}
			next := r.Apply(cur)
			h := hashState(next)
			known, err := e.lookupFrozen(h, next)
			if err != nil {
				return nil, err
			}
			c := candidate{rule: int32(ri), id: known, hash: h}
			if known < 0 {
				c.next = next
			}
			out = append(out, c)
		}
		return out, nil
	}

	if workers <= 1 || len(frontier) < 2*workers {
		for fi, id := range frontier {
			out, err := expand(id)
			if err != nil {
				return nil, err
			}
			cands[fi] = out
		}
		return cands, nil
	}
	chunk := (len(frontier) + workers - 1) / workers
	nChunks := (len(frontier) + chunk - 1) / chunk
	errs := make([]error, nChunks)
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		lo, hi := c*chunk, min((c+1)*chunk, len(frontier))
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			for fi := lo; fi < hi; fi++ {
				out, err := expand(frontier[fi])
				if err != nil {
					errs[c] = err
					return
				}
				cands[fi] = out
			}
		}(c, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// routeCandidates is phase 2, the cross-shard successor handoff: a
// serial pass routes every unresolved candidate to its owner shard's
// dedup list in canonical (position, edge) order, and counts candidates
// whose owner differs from the parent's shard — the volume that would
// cross the wire in a multi-node run.
func (e *levelExplorer) routeCandidates(cands [][]candidate) [][]candRef {
	refs := make([][]candRef, len(e.shards))
	handoff := make([]int64, len(e.shards))
	for pos, list := range cands {
		from := e.fOwners[pos]
		for ci := range list {
			c := &list[ci]
			k := int(c.hash & e.mask)
			if uint8(k) != from {
				handoff[k]++
			}
			if c.id < 0 {
				refs[k] = append(refs[k], candRef{pos: int32(pos), ci: int32(ci)})
			}
		}
	}
	for k, n := range handoff {
		if n > 0 {
			e.handoff[k].Add(n)
		}
	}
	return refs
}

// dedupShards is phase 3: every shard interns its routed candidates in
// parallel. Refs arrive in canonical order, so the candidate that
// creates a pending entry is the canonically-first occurrence of that
// state; capacity is reserved up front so recorded slot positions stay
// valid for the whole level.
func (e *levelExplorer) dedupShards(cands [][]candidate, refs [][]candRef) ([][]pendingEntry, error) {
	pend := make([][]pendingEntry, len(e.shards))
	errs := make([]error, len(e.shards))
	run := func(k int) {
		x := e.shards[k]
		if err := e.ensureShard(k, len(refs[k])); err != nil {
			errs[k] = err
			return
		}
		for _, rf := range refs[k] {
			c := &cands[rf.pos][rf.ci]
			v, slot, err := x.probe(c.hash, func(v int32) (bool, error) {
				if v > 0 {
					return e.g.arena.confirm(v-1, c.next, c.hash, e.g.spillReads)
				}
				other := pend[k][-v-1].ref
				return bytesEqual(cands[other.pos][other.ci].next, c.next), nil
			})
			if err != nil {
				errs[k] = err
				return
			}
			switch {
			case v > 0:
				c.id = v - 1
			case v < 0:
				c.pend = -v - 1
			default:
				c.pend = int32(len(pend[k]))
				pend[k] = append(pend[k], pendingEntry{ref: rf, slot: int32(slot), id: -1})
				x.set(slot, -(c.pend + 1))
			}
		}
	}
	if len(e.shards) == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for k := range e.shards {
			if len(refs[k]) == 0 {
				continue
			}
			wg.Add(1)
			go func(k int) { defer wg.Done(); run(k) }(k)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pend, nil
}

// mergeLevel is phase 4, the serial merge in canonical frontier order:
// fresh states get global ids exactly as the sequential explorer would
// assign them, the parent tree and adjacency rows extend in rule order,
// and this level's pending index slots are promoted to committed ids.
func (e *levelExplorer) mergeLevel(cands [][]candidate, pend [][]pendingEntry) error {
	g := e.g
	var next []int32
	var nextOwners []uint8
	for pos, list := range cands {
		from := e.frontier[pos]
		edges := make([]graphEdge, 0, len(list))
		for ci := range list {
			c := &list[ci]
			to := c.id
			if to < 0 {
				k := int(c.hash & e.mask)
				pe := &pend[k][c.pend]
				if pe.id < 0 {
					id, err := g.arena.append(c.next, c.hash)
					if err != nil {
						return err
					}
					g.adj = append(g.adj, nil)
					g.parentState = append(g.parentState, from)
					g.parentRule = append(g.parentRule, c.rule)
					pe.id = id
					e.shards[k].slots[pe.slot] = id + 1
					next = append(next, id)
					nextOwners = append(nextOwners, uint8(k))
				}
				to = pe.id
			}
			edges = append(edges, graphEdge{rule: c.rule, to: to})
		}
		g.adj[from] = edges
	}
	e.frontier = next
	e.fOwners = nextOwners
	e.level++
	return nil
}

// endOfLevel runs the level-boundary bookkeeping: spill enforcement
// under the memory budget, residency and occupancy instruments, and the
// snapshot checkpoint (every snapshotEvery levels, plus always when the
// frontier drains so completed explorations resume for free).
func (e *levelExplorer) endOfLevel() error {
	g := e.g
	moved, err := g.arena.enforceBudget(e.opts.MemBudget, e.opts.SpillDir)
	if err != nil {
		return err
	}
	if moved > 0 {
		e.spillBytes.Add(moved)
	}
	resident := g.arena.memBytes()
	for k, x := range e.shards {
		resident += x.memBytes()
		e.occupancy[k].Set(int64(x.used))
	}
	e.peakBytes.SetMax(resident)
	if e.opts.SnapshotDir != "" &&
		(len(e.frontier) == 0 || e.level%e.opts.snapshotEvery() == 0) {
		if err := e.writeSnapshot(); err != nil {
			return err
		}
	}
	// One progress event per completed level: how deep the exploration
	// is, how many states it holds, and how wide the next frontier is —
	// the live feedback streaming clients steer budgets by. Publishing
	// never blocks, so the level loop pays only the ring append.
	if e.bus == nil {
		return nil
	}
	e.bus.Publish(obs.BusEvent{
		Type:  "progress",
		Scope: e.scope,
		Name:  "mc.level",
		Value: int64(e.level),
		Attrs: map[string]string{
			"system":   g.Sys.Name,
			"states":   strconv.Itoa(g.NumStates()),
			"frontier": strconv.Itoa(len(e.frontier)),
		},
	})
	return nil
}
