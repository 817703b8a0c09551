package jobs

import (
	"container/list"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"broadcastic/internal/telemetry"
)

// Cache is the content-addressed result store: an in-memory LRU over
// rendered results, keyed by JobSpec.Key, with an optional disk spill
// directory. Results are immutable strings: Put copies the caller's bytes
// once, and every hit shares the stored string. Every Put writes through
// to the spill, so results survive process restarts: NewCache warms the
// LRU from the directory (most recently used first, up to the caps), and
// a restarted service answers prior submissions without dispatching a
// worker. A disk hit is a read: it promotes the result into memory and
// touches the file's mtime, but does not rewrite the file. All methods
// are safe for concurrent use.
//
// A spill file is the result followed by its CRC-32C (see encodeSpill).
// A file that fails the check (truncated, damaged or written without a
// trailer) is deleted, counted in jobs.cache.corrupt and read as a miss,
// so its job is recomputed and spilled again.
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
	rec      *telemetry.Collector
}

type cacheEntry struct {
	key string
	val string
}

// NewCache builds a cache holding at most entries results and, when
// maxBytes > 0, at most that many result bytes in memory. dir, when
// non-empty, must be an existing directory; every stored result persists
// there, spilled results are read back on a memory miss, and previously
// spilled results are warmed into the LRU at construction. rec (nil ok)
// receives the hit/miss/eviction/corruption counters and the
// resident-bytes gauge declared in telemetry/names.go.
func NewCache(entries int, maxBytes int64, dir string, rec *telemetry.Collector) *Cache {
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
// most recently used results first (a store writes its file and a disk
// hit touches the file's mtime, so mtime orders files by recency),
// stopping at the entry and byte caps. Unreadable files are skipped, and
// files that fail their checksum are deleted; both surface as misses and
// are recomputed. It runs inside NewCache, before the cache is shared, so
// it needs no lock.
func (c *Cache) warmFromSpill() {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type spilled struct {
		key  string
		mod  time.Time
		size int64 // result bytes, without the trailer
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
			size: info.Size() - spillTrailer,
		})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.After(files[j].mod) })
	for _, f := range files {
		if c.ll.Len() >= c.entries ||
			(c.maxBytes > 0 && c.ll.Len() > 0 && c.bytes+f.size > c.maxBytes) {
			break
		}
		path := c.spillPath(f.key)
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		val, ok := decodeSpill(b)
		if !ok {
			c.discard(path)
			continue
		}
		c.byKey[f.key] = c.ll.PushBack(&cacheEntry{key: f.key, val: val})
		c.bytes += int64(len(val))
	}
	c.rec.Gauge(telemetry.JobsCacheBytes, float64(c.bytes))
}

// Get returns the cached result for key, shared, not copied. Memory is
// consulted first, then the disk spill. A disk hit is promoted into
// memory without rewriting its file: Get touches the file's mtime, so
// the next warm-up still ranks it by this use.
func (c *Cache) Get(key string) (string, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		val := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		c.rec.Count(telemetry.JobsCacheHits, 1)
		return val, true
	}
	dir := c.dir
	c.mu.Unlock()
	if dir != "" {
		path := c.spillPath(key)
		if b, err := os.ReadFile(path); err == nil {
			if val, ok := decodeSpill(b); ok {
				c.store(key, val)
				now := time.Now()
				_ = os.Chtimes(path, now, now) // best-effort, like the spill
				c.rec.Count(telemetry.JobsCacheDiskHits, 1)
				return val, true
			}
			c.discard(path)
		}
	}
	c.rec.Count(telemetry.JobsCacheMisses, 1)
	return "", false
}

// Put stores a copy of val under key, writing it through to the spill
// directory when one is configured so that the result survives restarts,
// and returns the stored string. Storing an existing key replaces its
// result and refreshes its recency and its spill file.
func (c *Cache) Put(key string, val []byte) string {
	s := string(val)
	c.store(key, s)
	// Write-through outside the lock: s is immutable and evicted entries
	// need no separate write, since their own Put already persisted them.
	c.spillWrite(key, s)
	return s
}

// store makes val key's most recently used result, evicts
// least-recently-used entries until the entry and byte caps hold (their
// disk copies remain) and sets the resident-bytes gauge.
func (c *Cache) store(key, val string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += int64(len(val)) - int64(len(ent.val))
		ent.val = val
		c.ll.MoveToFront(el)
	} else {
		c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
		c.bytes += int64(len(val))
	}
	for c.ll.Len() > c.entries || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 1) {
		el := c.ll.Back()
		ent := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.byKey, ent.key)
		c.bytes -= int64(len(ent.val))
		c.rec.Count(telemetry.JobsCacheEvictions, 1)
	}
	// Set under the lock, so concurrent stores leave the gauge at the
	// level of the last one to change it.
	c.rec.Gauge(telemetry.JobsCacheBytes, float64(c.bytes))
}

// spillWrite persists an entry atomically: a concurrent Get must see
// either no file or complete bytes, never a truncated write, so the
// encoded file lands under a unique temp name and is renamed into place.
func (c *Cache) spillWrite(key, val string) {
	if c.dir == "" {
		return
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(encodeSpill(val))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.spillPath(key)); err != nil {
		_ = os.Remove(tmp.Name())
	}
}

// discard deletes a spill file that failed its checksum and counts it.
// Only the caller whose delete succeeds counts, so concurrent readers of
// one damaged file count it once.
func (c *Cache) discard(path string) {
	if os.Remove(path) == nil {
		c.rec.Count(telemetry.JobsCacheCorrupt, 1)
	}
}

func (c *Cache) spillPath(key string) string {
	return filepath.Join(c.dir, key+".result")
}

// spillTrailer is the length of the checksum that ends a spill file.
const spillTrailer = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeSpill returns a spill file's bytes: the result, then its
// CRC-32C, big-endian.
func encodeSpill(val string) []byte {
	b := make([]byte, len(val)+spillTrailer)
	copy(b, val)
	binary.BigEndian.PutUint32(b[len(val):], crc32.Checksum(b[:len(val)], castagnoli))
	return b
}

// decodeSpill returns the result a spill file holds, or false when the
// file is shorter than its trailer or its checksum does not match.
func decodeSpill(b []byte) (string, bool) {
	n := len(b) - spillTrailer
	if n < 0 || crc32.Checksum(b[:n], castagnoli) != binary.BigEndian.Uint32(b[n:]) {
		return "", false
	}
	return string(b[:n]), true
}
