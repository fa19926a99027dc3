// Exploration snapshots: at level boundaries the explorer checkpoints
// the arena, parent tree, adjacency and frontier into a single
// CRC-checksummed binary file, written with the same temp-write + fsync
// + rename idiom as the job WAL, so a killed exploration resumes from
// its last completed level instead of recomputing. Files are named
// snap-<fingerprint>-<level>.ckpt — the fingerprint is the system's
// structural identity (ts.System.Fingerprint, the same key the engine's
// graph cache uses), so one snapshot directory safely serves many
// systems (every CEGAR refinement is its own fingerprint) and a
// snapshot never resumes the wrong model. The fingerprint deliberately
// excludes tuning like MaxStates, so a truncated run's snapshots resume
// under a bigger budget. A snapshot with an empty
// frontier marks a completed exploration, which resumes for free.
//
// Layout (all integers little-endian, CRC32/IEEE over everything before
// the trailer):
//
//	magic "PCSN" | version u32 | fingerprint [32]byte
//	level u32 | numStates u32 | stride u32 | numRules u32
//	states  numStates × stride bytes, id order
//	parents numStates × (parentState i32, parentRule i32)
//	adj     numStates × (count u32, count × (rule u32, to u32))
//	frontier count u32, count × id u32, canonical order
//	crc u32
package mc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"prochecker/internal/ts"
)

const (
	snapshotMagic   = "PCSN"
	snapshotVersion = 1
)

// snapshotPrefix names the per-system snapshot family inside a shared
// directory.
func snapshotPrefix(fp ts.Fingerprint) string {
	return "snap-" + fp.Short() + "-"
}

// snapWriter streams the payload while folding it into the CRC.
type snapWriter struct {
	w       io.Writer
	crc     uint32
	scratch [8]byte
	err     error
}

func (s *snapWriter) write(b []byte) {
	if s.err != nil {
		return
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, b)
	_, s.err = s.w.Write(b)
}

func (s *snapWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(s.scratch[:4], v)
	s.write(s.scratch[:4])
}

func (s *snapWriter) i32(v int32) { s.u32(uint32(v)) }

// writeSnapshot checkpoints the exploration as of e.level completed
// levels. The temp file is created in the target directory, fsynced and
// atomically renamed, and older snapshots of the same system are
// removed only afterwards — a crash at any point leaves the newest
// complete snapshot intact.
func (e *levelExplorer) writeSnapshot() (err error) {
	g := e.g
	dir := e.opts.SnapshotDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mc: creating snapshot dir: %w", err)
	}
	fp := e.model
	final := filepath.Join(dir, fmt.Sprintf("%s%08d.ckpt", snapshotPrefix(fp), e.level))

	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("mc: creating snapshot temp: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	bw := bufio.NewWriterSize(tmp, 1<<16)
	sw := &snapWriter{w: bw}
	sw.write([]byte(snapshotMagic))
	sw.u32(snapshotVersion)
	sw.write(fp[:])
	n := g.NumStates()
	sw.u32(uint32(e.level))
	sw.u32(uint32(n))
	sw.u32(uint32(g.arena.stride))
	sw.u32(uint32(len(g.Rules)))
	ferr := g.arena.forEach(0, func(_ int32, s []byte) bool {
		sw.write(s)
		return sw.err == nil
	})
	if ferr != nil {
		return ferr
	}
	for id := 0; id < n; id++ {
		sw.i32(g.parentState[id])
		sw.i32(g.parentRule[id])
	}
	for id := 0; id < n; id++ {
		edges := g.adj[id]
		sw.u32(uint32(len(edges)))
		for _, ed := range edges {
			sw.u32(uint32(ed.rule))
			sw.u32(uint32(ed.to))
		}
	}
	sw.u32(uint32(len(e.frontier)))
	for _, id := range e.frontier {
		sw.u32(uint32(id))
	}
	if sw.err != nil {
		return fmt.Errorf("mc: writing snapshot: %w", sw.err)
	}
	binary.LittleEndian.PutUint32(sw.scratch[:4], sw.crc)
	if _, err := bw.Write(sw.scratch[:4]); err != nil {
		return fmt.Errorf("mc: writing snapshot checksum: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("mc: flushing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("mc: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("mc: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("mc: publishing snapshot: %w", err)
	}
	removeOlderSnapshots(dir, snapshotPrefix(fp), final)
	return nil
}

// removeOlderSnapshots prunes superseded checkpoints of one system;
// best-effort, the newest file is already durable.
func removeOlderSnapshots(dir, prefix, keep string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		if full := filepath.Join(dir, name); full != keep {
			os.Remove(full)
		}
	}
}

// snapReader parses a fully-read snapshot payload.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (s *snapReader) bytes(n int) []byte {
	if s.err != nil {
		return nil
	}
	if s.off+n > len(s.b) {
		s.err = fmt.Errorf("mc: snapshot truncated at offset %d", s.off)
		return nil
	}
	out := s.b[s.off : s.off+n]
	s.off += n
	return out
}

func (s *snapReader) u32() uint32 {
	b := s.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (s *snapReader) i32() int32 { return int32(s.u32()) }

// tryResume loads the newest valid snapshot of this system from
// opts.SnapshotDir into the explorer, rebuilding the shard indexes and
// per-segment blooms by re-hashing the restored arena. A missing,
// corrupt or mismatched snapshot is not an error — exploration simply
// starts fresh; only I/O failure of the directory itself propagates.
func (e *levelExplorer) tryResume() (int, bool, error) {
	dir := e.opts.SnapshotDir
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("mc: reading snapshot dir: %w", err)
	}
	fp := e.model
	prefix := snapshotPrefix(fp)
	var names []string
	for _, ent := range entries {
		if n := ent.Name(); strings.HasPrefix(n, prefix) && strings.HasSuffix(n, ".ckpt") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // zero-padded level: newest first
	for _, name := range names {
		lvl, ok := e.loadSnapshot(filepath.Join(dir, name), fp)
		if ok {
			return lvl, true, nil
		}
	}
	return 0, false, nil
}

// loadSnapshot restores one checkpoint file; any validation failure
// (checksum, version, fingerprint, structural bounds) rejects the file.
func (e *levelExplorer) loadSnapshot(path string, fp ts.Fingerprint) (int, bool) {
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) < 4 {
		return 0, false
	}
	payload, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(trailer) {
		return 0, false
	}
	r := &snapReader{b: payload}
	if string(r.bytes(4)) != snapshotMagic || r.u32() != snapshotVersion {
		return 0, false
	}
	if !bytesEqual(r.bytes(32), fp[:]) {
		return 0, false
	}
	g := e.g
	level := int(r.u32())
	n := int(r.u32())
	stride := int(r.u32())
	nRules := int(r.u32())
	if r.err != nil || stride != g.arena.stride || nRules != len(g.Rules) ||
		n < 1 || n > maxArenaStates {
		return 0, false
	}
	states := r.bytes(n * stride)
	if r.err != nil {
		return 0, false
	}

	parentState := make([]int32, n)
	parentRule := make([]int32, n)
	for id := 0; id < n; id++ {
		parentState[id] = r.i32()
		parentRule[id] = r.i32()
	}
	adj := make([][]graphEdge, n)
	for id := 0; id < n && r.err == nil; id++ {
		count := int(r.u32())
		if count == 0 {
			continue
		}
		if count > len(g.Rules) {
			return 0, false
		}
		edges := make([]graphEdge, count)
		for i := range edges {
			rule, to := r.i32(), r.i32()
			if rule < 0 || int(rule) >= nRules || to < 0 || int(to) >= n {
				return 0, false
			}
			edges[i] = graphEdge{rule: rule, to: to}
		}
		adj[id] = edges
	}
	frontier := make([]int32, int(r.u32()))
	fOwners := make([]uint8, len(frontier))
	for i := range frontier {
		id := r.i32()
		if id < 0 || int(id) >= n {
			return 0, false
		}
		frontier[i] = id
	}
	if r.err != nil || r.off != len(r.b) {
		return 0, false
	}

	// Rebuild the arena, per-segment blooms and shard indexes by
	// re-hashing the restored states; frontier owners fall out of the
	// same hashes. A first pass counts per-shard ownership so each
	// (still empty) index is sized once up front — the slot-only tables
	// cannot rehash in place. The arena is empty here (resume runs
	// before any interning), so ids come out dense and in order by
	// construction.
	if g.arena.len() != 0 {
		return 0, false
	}
	owners := make([]uint8, n)
	hashes := make([]uint64, n)
	counts := make([]int, len(e.shards))
	for id := 0; id < n; id++ {
		h := hashState(ts.State(states[id*stride : (id+1)*stride]))
		hashes[id] = h
		owners[id] = uint8(h & e.mask)
		counts[h&e.mask]++
	}
	for k, x := range e.shards {
		x.reserve(counts[k])
	}
	for id := 0; id < n; id++ {
		s := states[id*stride : (id+1)*stride]
		aid, err := g.arena.append(s, hashes[id])
		if err != nil || int(aid) != id {
			return 0, false
		}
		x := e.shards[owners[id]]
		_, pos, _ := x.probe(hashes[id], func(int32) (bool, error) { return false, nil })
		x.set(pos, int32(id)+1)
	}
	for i, id := range frontier {
		fOwners[i] = owners[id]
	}
	g.parentState = parentState
	g.parentRule = parentRule
	g.adj = adj
	e.frontier = frontier
	e.fOwners = fOwners
	e.level = level
	return level, true
}
