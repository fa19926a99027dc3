package mc

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"prochecker/internal/ts"
)

// gridSystem is a two-counter model (5 × 4 states over several BFS
// levels) small enough to snapshot in a fuzz seed.
func gridSystem(tb testing.TB) *ts.System {
	tb.Helper()
	sys := ts.NewSystem("grid")
	for _, v := range []struct {
		name string
		max  int
	}{{"a", 4}, {"b", 3}} {
		domain := make([]string, v.max+1)
		for i := range domain {
			domain[i] = fmt.Sprintf("%s%d", v.name, i)
		}
		if err := sys.AddVar(v.name, domain...); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < v.max; i++ {
			if err := sys.AddRule(ts.Rule{
				Name:    fmt.Sprintf("inc_%s%d", v.name, i),
				Guard:   ts.Eq{Var: v.name, Value: domain[i]},
				Assigns: []ts.Assign{{Var: v.name, Value: domain[i+1]}},
			}); err != nil {
				tb.Fatal(err)
			}
		}
		if err := sys.AddRule(ts.Rule{
			Name:    "reset_" + v.name,
			Guard:   ts.Eq{Var: v.name, Value: domain[v.max]},
			Assigns: []ts.Assign{{Var: v.name, Value: domain[0]}},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return sys
}

// snapshotPayloads explores sys with checkpointing on and returns the
// newest checkpoint's payload (CRC trailer stripped): one of a
// completed exploration (empty frontier) and one of a run truncated
// mid-way (non-empty frontier).
func snapshotPayloads(tb testing.TB, sys *ts.System) (complete, partial []byte) {
	tb.Helper()
	newest := func(opts Options) []byte {
		opts.SnapshotDir = tb.TempDir()
		_, _ = NewEngine().CheckContext(context.Background(), sys,
			Invariant{PropName: "explore", Holds: ts.True{}}, opts) // truncation is expected
		snaps, _ := filepath.Glob(filepath.Join(opts.SnapshotDir, "snap-*.ckpt"))
		if len(snaps) == 0 {
			tb.Fatal("exploration left no snapshot")
		}
		raw, err := os.ReadFile(snaps[len(snaps)-1])
		if err != nil {
			tb.Fatal(err)
		}
		return raw[:len(raw)-4]
	}
	return newest(Options{Workers: 1}), newest(Options{Workers: 1, MaxStates: 6})
}

// withCRC appends the checksum trailer loadSnapshot verifies.
func withCRC(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), payload...), crc32.ChecksumIEEE(payload))
}

// restoreTarget is a fresh explorer for sys, in the state buildGraph
// hands to tryResume.
func restoreTarget(tb testing.TB, sys *ts.System) *levelExplorer {
	tb.Helper()
	rules, err := sys.CompileRules()
	if err != nil {
		tb.Fatal(err)
	}
	return &levelExplorer{
		g: &StateGraph{
			Sys: sys, Rules: rules, MaxStates: DefaultMaxStates,
			arena: newStateArena(len(sys.InitialState()), 0),
		},
		rules:  rules,
		model:  sys.Fingerprint(),
		shards: []*stateIndex{newStateIndex()},
	}
}

// checkRestored asserts the invariants the explorer relies on after a
// successful resume: dense ids, a parent tree rooted at state 0 whose
// parents precede their children, in-range edges and frontier, and
// every state value inside its variable's domain.
func checkRestored(t *testing.T, e *levelExplorer) {
	t.Helper()
	g := e.g
	n := g.arena.len()
	if n < 1 || len(g.parentState) != n || len(g.parentRule) != n || len(g.adj) != n {
		t.Fatalf("ragged graph: %d states, %d/%d parents, %d adjacency lists",
			n, len(g.parentState), len(g.parentRule), len(g.adj))
	}
	vars := g.Sys.Vars()
	for id := 0; id < n; id++ {
		if id > 0 && (g.parentState[id] < 0 || int(g.parentState[id]) >= id ||
			g.parentRule[id] < 0 || int(g.parentRule[id]) >= len(g.Rules)) {
			t.Fatalf("state %d: parent (%d, %d) out of order", id, g.parentState[id], g.parentRule[id])
		}
		for _, ed := range g.adj[id] {
			if ed.to < 0 || int(ed.to) >= n || ed.rule < 0 || int(ed.rule) >= len(g.Rules) {
				t.Fatalf("state %d: edge %+v out of range", id, ed)
			}
		}
		s, err := g.arena.at(int32(id))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range s {
			if int(v) >= len(vars[i].Domain) {
				t.Fatalf("state %d: %s value %d outside its domain", id, vars[i].Name, v)
			}
		}
		if got, err := e.lookupFrozen(hashState(s), s); err != nil || got != int32(id) {
			t.Fatalf("state %d resolves to %d (%v)", id, got, err)
		}
	}
	if len(e.fOwners) != len(e.frontier) {
		t.Fatalf("%d frontier owners for %d frontier states", len(e.fOwners), len(e.frontier))
	}
	for _, id := range e.frontier {
		if id < 0 || int(id) >= n {
			t.Fatalf("frontier state %d out of range", id)
		}
	}
}

// TestSnapshotRoundTrip: both fixture checkpoints restore into a
// consistent explorer.
func TestSnapshotRoundTrip(t *testing.T) {
	sys := gridSystem(t)
	complete, partial := snapshotPayloads(t, sys)
	for name, payload := range map[string][]byte{"complete": complete, "partial": partial} {
		e := restoreTarget(t, sys)
		if _, ok := e.loadSnapshot(withCRC(payload), sys.Fingerprint()); !ok {
			t.Fatalf("%s snapshot rejected", name)
		}
		checkRestored(t, e)
		if (name == "partial") == (len(e.frontier) == 0) {
			t.Errorf("%s snapshot restored a frontier of %d", name, len(e.frontier))
		}
	}
}

// TestSnapshotRejectsHugeFrontierCount: a CRC-valid checkpoint claiming
// 0xFFFFFFFF frontier entries is rejected before the 16 GiB frontier
// (and 4 GiB owner) slices are allocated.
func TestSnapshotRejectsHugeFrontierCount(t *testing.T) {
	sys := gridSystem(t)
	complete, _ := snapshotPayloads(t, sys)
	payload := append([]byte(nil), complete...)
	// A completed exploration ends in an empty frontier: its count is
	// the payload's last word.
	binary.LittleEndian.PutUint32(payload[len(payload)-4:], 0xFFFFFFFF)
	raw := withCRC(payload)
	e := restoreTarget(t, sys)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := e.loadSnapshot(raw, sys.Fingerprint())
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("snapshot with a 0xFFFFFFFF frontier count accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("rejecting the snapshot allocated %d MiB", grew>>20)
	}
}

// FuzzLoadSnapshot feeds mutated checkpoints to the loader. The CRC
// trailer and the model fingerprint are rewritten to match, so inputs
// get past the integrity checks into the structural ones. Any input
// must be rejected or restore a consistent explorer — never panic.
// Run continuously with `go test -fuzz=FuzzLoadSnapshot ./internal/mc`.
func FuzzLoadSnapshot(f *testing.F) {
	sys := gridSystem(f)
	complete, partial := snapshotPayloads(f, sys)
	f.Add(complete)
	f.Add(partial)
	f.Add([]byte{})
	fp := sys.Fingerprint()
	f.Fuzz(func(t *testing.T, payload []byte) {
		payload = append([]byte(nil), payload...)
		if len(payload) >= 8+len(fp) {
			copy(payload[8:], fp[:])
		}
		e := restoreTarget(t, sys)
		if _, ok := e.loadSnapshot(withCRC(payload), fp); ok {
			checkRestored(t, e)
		}
	})
}
