package jobs

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Store is a content-addressed result store: one JSON file per result,
// named by the spec's SHA-256 key, bounded by an in-memory LRU that
// evicts the least-recently-used entry (and its file) past MaxEntries.
// It is safe for concurrent use.
type Store struct {
	dir string
	max int

	mu    sync.Mutex
	lru   *list.List               // front = least recently used
	index map[string]*list.Element // key -> element whose Value is the key
	// canon holds, per key, the CRC-32 of the file bytes last found to
	// be the canonical encoding, so Get re-marshals a result only when
	// its file is new to this process or has changed.
	canon map[string]uint32

	evictions   atomic.Int64
	quarantined atomic.Int64
}

// DefaultStoreEntries bounds a store when the caller passes
// maxEntries <= 0.
const DefaultStoreEntries = 512

// keyFile matches the file names the store owns: 64 hex chars + .json.
var keyFile = regexp.MustCompile(`^[0-9a-f]{64}\.json$`)

// OpenStore opens (creating if needed) a result store rooted at dir.
// Existing result files are adopted into the LRU ordered by modification
// time, so a restarted service keeps its cache warm and its eviction
// order sensible.
func OpenStore(dir string, maxEntries int) (*Store, error) {
	if maxEntries <= 0 {
		maxEntries = DefaultStoreEntries
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating store dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: reading store dir: %w", err)
	}
	type existing struct {
		key   string
		mtime int64
	}
	var found []existing
	for _, e := range entries {
		if e.IsDir() || !keyFile.MatchString(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, existing{key: e.Name()[:64], mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })

	s := &Store{dir: dir, max: maxEntries, lru: list.New(), index: make(map[string]*list.Element), canon: make(map[string]uint32)}
	for _, f := range found {
		s.index[f.key] = s.lru.PushBack(f.key)
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+".json") }

// Get looks up a stored result by key, returning the exact stored bytes
// alongside the decoded result and bumping the entry's recency. A
// missing or unreadable entry reports ok=false. A corrupt file — one
// that does not decode, carries another schema version or key, or is
// not byte for byte the canonical encoding Put writes — is quarantined,
// so a fresh Put can replace it and a cache hit is always
// byte-identical to a fresh computation.
func (s *Store) Get(key string) ([]byte, *Result, bool) {
	if s == nil {
		return nil, nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[key]
	if !ok {
		return nil, nil, false
	}
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		s.quarantineLocked(key, el)
		return nil, nil, false
	}
	var res Result
	if err := json.Unmarshal(b, &res); err != nil || res.SchemaVersion != ResultSchemaVersion || res.Key != key {
		s.quarantineLocked(key, el)
		return nil, nil, false
	}
	sum := crc32.ChecksumIEEE(b)
	if prev, ok := s.canon[key]; !ok || prev != sum {
		if canon, err := res.MarshalCanonical(); err != nil || !bytes.Equal(canon, b) {
			s.quarantineLocked(key, el)
			return nil, nil, false
		}
		s.canon[key] = sum
	}
	s.lru.MoveToBack(el)
	return b, &res, true
}

// Put persists the result under res.Key, returning the canonical bytes
// written. An entry that already exists keeps its original file (the
// first write wins — contents are deterministic per key, so this only
// skips redundant IO) and is bumped to most recent.
func (s *Store) Put(res *Result) ([]byte, error) {
	if s == nil {
		return res.MarshalCanonical()
	}
	b, err := res.MarshalCanonical()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[res.Key]; ok {
		s.lru.MoveToBack(el)
		return b, nil
	}
	// Atomic publish: write a temp file in the same directory, then
	// rename over the final name, so readers never observe a torn file.
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return nil, fmt.Errorf("jobs: writing result: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("jobs: writing result: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("jobs: writing result: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(res.Key)); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("jobs: publishing result: %w", err)
	}
	s.index[res.Key] = s.lru.PushBack(res.Key)
	s.canon[res.Key] = crc32.ChecksumIEEE(b)
	s.evictLocked()
	return b, nil
}

// Len reports how many results the store currently holds.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Evictions reports how many entries the LRU bound has evicted.
func (s *Store) Evictions() int64 {
	if s == nil {
		return 0
	}
	return s.evictions.Load()
}

// Quarantined reports how many corrupt (torn/truncated/stale-schema)
// entries Get has moved aside for inspection instead of serving.
func (s *Store) Quarantined() int64 {
	if s == nil {
		return 0
	}
	return s.quarantined.Load()
}

// quarantineLocked moves a corrupt entry's file into the quarantine/
// subdirectory (keeping the evidence for debugging) and removes it from
// the index so a fresh Put — or a recomputation — can replace it.
func (s *Store) quarantineLocked(key string, el *list.Element) {
	s.lru.Remove(el)
	delete(s.index, key)
	delete(s.canon, key)
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(s.path(key), filepath.Join(qdir, key+".json")) == nil {
			s.quarantined.Add(1)
			return
		}
	}
	os.Remove(s.path(key))
	s.quarantined.Add(1)
}

// evictLocked trims the store to its bound, oldest first.
func (s *Store) evictLocked() {
	for s.lru.Len() > s.max {
		el := s.lru.Front()
		key := el.Value.(string)
		s.dropLocked(key, el)
		s.evictions.Add(1)
	}
}

// dropLocked removes one entry and its file.
func (s *Store) dropLocked(key string, el *list.Element) {
	s.lru.Remove(el)
	delete(s.index, key)
	delete(s.canon, key)
	os.Remove(s.path(key))
}
