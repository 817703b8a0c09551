package jobs

import (
	"container/list"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"broadcastic/internal/telemetry"
)

// Cache is the content-addressed result store: an in-memory LRU over
// rendered result bytes, keyed by JobSpec.Key, with an optional disk
// spill directory. Every Put writes through to the spill, so results
// survive process restarts: NewCache warms the LRU from the directory
// (most recent first, up to the caps), and a restarted service answers
// prior submissions without dispatching a worker. All methods are safe
// for concurrent use.
//
// The spill is best-effort by design: a result lost to an I/O error is
// merely recomputed, so write and read failures degrade to cache misses
// instead of surfacing. Keys are hex SHA-256 strings, so they are safe
// filenames on every platform.
type Cache struct {
	mu       sync.Mutex
	entries  int   // max resident entries (>0)
	maxBytes int64 // max resident bytes (0 = unbounded)
	bytes    int64
	ll       *list.List // front = most recently used
	byKey    map[string]*list.Element
	dir      string // spill directory ("" = memory only)
	rec      telemetry.Recorder
}

type cacheEntry struct {
	key string
	val []byte
}

// NewCache builds a cache holding at most entries results and, when
// maxBytes > 0, at most that many result bytes in memory. dir, when
// non-empty, must be an existing directory; every stored result persists
// there, spilled results are read back on a memory miss, and previously
// spilled results are warmed into the LRU at construction. rec (nil ok)
// receives the hit/miss/eviction/bytes counters declared in
// telemetry/names.go.
func NewCache(entries int, maxBytes int64, dir string, rec telemetry.Recorder) *Cache {
	if entries < 1 {
		entries = 1
	}
	c := &Cache{
		entries:  entries,
		maxBytes: maxBytes,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		dir:      dir,
		rec:      rec,
	}
	if dir != "" {
		c.warmFromSpill()
	}
	return c
}

// warmFromSpill preloads the LRU from the spill directory at boot: the
// most recently written results first (write-through refreshes a file on
// every store, so mtime approximates recency), stopping at the entry and
// byte caps. Unreadable files are skipped — they will surface as misses
// and be recomputed.
func (c *Cache) warmFromSpill() {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type spilled struct {
		key  string
		mod  time.Time
		size int64
	}
	var files []spilled
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".result") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, spilled{
			key:  strings.TrimSuffix(name, ".result"),
			mod:  info.ModTime(),
			size: info.Size(),
		})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.After(files[j].mod) })
	for _, f := range files {
		if c.ll.Len() >= c.entries ||
			(c.maxBytes > 0 && c.ll.Len() > 0 && c.bytes+f.size > c.maxBytes) {
			break
		}
		val, err := os.ReadFile(c.spillPath(f.key))
		if err != nil {
			continue
		}
		c.byKey[f.key] = c.ll.PushBack(&cacheEntry{key: f.key, val: val})
		c.bytes += int64(len(val))
		telemetry.Count(c.rec, telemetry.JobsCacheBytes, int64(len(val)))
	}
}

// Get returns a copy of the cached result for key. Memory is consulted
// first, then the disk spill; a spill hit is promoted back into memory.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		val := append([]byte(nil), el.Value.(*cacheEntry).val...)
		c.mu.Unlock()
		telemetry.Count(c.rec, telemetry.JobsCacheHits, 1)
		return val, true
	}
	dir := c.dir
	c.mu.Unlock()
	if dir != "" {
		if val, err := os.ReadFile(c.spillPath(key)); err == nil {
			telemetry.Count(c.rec, telemetry.JobsCacheDiskHits, 1)
			c.Put(key, val)
			return val, true
		}
	}
	telemetry.Count(c.rec, telemetry.JobsCacheMisses, 1)
	return nil, false
}

// Put stores the result under key — writing through to the spill
// directory when one is configured, so the result survives restarts —
// and evicts least-recently-used entries until the entry and byte caps
// hold (their disk copies remain). Storing an existing key refreshes its
// recency and its spill file's mtime.
func (c *Cache) Put(key string, val []byte) {
	val = append([]byte(nil), val...)
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += int64(len(val)) - int64(len(ent.val))
		telemetry.Count(c.rec, telemetry.JobsCacheBytes, int64(len(val))-int64(len(ent.val)))
		ent.val = val
		c.ll.MoveToFront(el)
	} else {
		c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
		c.bytes += int64(len(val))
		telemetry.Count(c.rec, telemetry.JobsCacheBytes, int64(len(val)))
	}
	for c.ll.Len() > c.entries || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 1) {
		el := c.ll.Back()
		ent := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.byKey, ent.key)
		c.bytes -= int64(len(ent.val))
		telemetry.Count(c.rec, telemetry.JobsCacheBytes, -int64(len(ent.val)))
		telemetry.Count(c.rec, telemetry.JobsCacheEvictions, 1)
	}
	c.mu.Unlock()
	// Write-through outside the lock: val is this call's private copy
	// (entries swap value slices, never mutate them), so no lock is
	// needed and evicted entries need no separate write — their own Put
	// already persisted them.
	c.spillWrite(key, val)
}

// spillWrite persists an entry atomically: a concurrent Get must see
// either no file or complete bytes, never a truncated write, so the
// value lands under a unique temp name and is renamed into place.
func (c *Cache) spillWrite(key string, val []byte) {
	if c.dir == "" {
		return
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(val)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.spillPath(key)); err != nil {
		_ = os.Remove(tmp.Name())
	}
}

func (c *Cache) spillPath(key string) string {
	return filepath.Join(c.dir, key+".result")
}
