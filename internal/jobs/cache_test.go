package jobs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/promtext"
)

func TestCacheLRU(t *testing.T) {
	col := telemetry.NewCollector()
	c := NewCache(2, 0, "", col)
	c.Put("a", []byte("alpha"))
	c.Put("b", []byte("beta"))
	if _, ok := c.Get("a"); !ok { // refresh a's recency
		t.Fatal("a missing")
	}
	c.Put("c", []byte("gamma")) // evicts b, the LRU entry
	if _, ok := c.Get("b"); ok {
		t.Error("b survived past capacity")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := c.Get(key); !ok {
			t.Errorf("%s evicted wrongly", key)
		}
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d", got)
	}
	if got, want := c.Bytes(), int64(len("alpha")+len("gamma")); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
	if got := col.Counter(telemetry.JobsCacheEvictions); got != 1 {
		t.Errorf("evictions counter = %d", got)
	}
	if got := col.Counter(telemetry.JobsCacheMisses); got != 1 {
		t.Errorf("misses counter = %d", got)
	}
	if got := col.Snapshot()[telemetry.JobsCacheBytes]; got != float64(c.Bytes()) {
		t.Errorf("bytes gauge %v disagrees with Bytes() %d", got, c.Bytes())
	}
}

// TestCacheBytesIsAGauge pins jobs.cache.bytes as the resident-bytes
// level: an eviction lowers it, so it must be exposed as a gauge (a
// Prometheus counter that falls reads as a counter reset), on a fresh
// cache as well as on one warmed from its spill.
func TestCacheBytesIsAGauge(t *testing.T) {
	dir := t.TempDir()
	col := telemetry.NewCollector()
	c := NewCache(2, 0, dir, col)
	c.Put("aaaa", bytes.Repeat([]byte("a"), 90))
	c.Put("bbbb", bytes.Repeat([]byte("b"), 110))
	c.Put("cccc", bytes.Repeat([]byte("c"), 20)) // evicts aaaa: 200 -> 130
	if got := c.Bytes(); got != 130 {
		t.Fatalf("Bytes = %d, want 130", got)
	}
	exposition := func(col *telemetry.Collector) string {
		var buf bytes.Buffer
		if _, err := promtext.WriteCollector(&buf, col); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if got, want := exposition(col), "# TYPE jobs_cache_bytes gauge\njobs_cache_bytes 130\n"; !strings.Contains(got, want) {
		t.Errorf("exposition lacks %q:\n%s", want, got)
	}
	warm := telemetry.NewCollector()
	NewCache(8, 0, dir, warm) // warms all three spill files
	if got, want := exposition(warm), "# TYPE jobs_cache_bytes gauge\njobs_cache_bytes 220\n"; !strings.Contains(got, want) {
		t.Errorf("warmed cache's exposition lacks %q:\n%s", want, got)
	}
}

func TestCacheByteCap(t *testing.T) {
	c := NewCache(100, 10, "", nil)
	c.Put("a", []byte("0123456789")) // exactly at cap
	c.Put("b", []byte("xyz"))        // pushes over; evicts a
	if _, ok := c.Get("a"); ok {
		t.Error("byte cap not enforced")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("newest entry evicted")
	}
	// The newest entry alone may exceed the cap; it must still be kept
	// (evicting it would make every oversized result uncacheable-looping).
	c.Put("big", make([]byte, 64))
	if _, ok := c.Get("big"); !ok {
		t.Error("oversized entry not retained as sole resident")
	}
}

func TestCacheDiskSpill(t *testing.T) {
	dir := t.TempDir()
	col := telemetry.NewCollector()
	c := NewCache(1, 0, dir, col)
	c.Put("aaaa", []byte("first"))
	c.Put("bbbb", []byte("second")) // evicts aaaa to disk
	if _, err := os.Stat(filepath.Join(dir, "aaaa.result")); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}
	val, ok := c.Get("aaaa") // disk hit, promoted back (evicting bbbb)
	if !ok || string(val) != "first" {
		t.Fatalf("disk readback = %q, %v", val, ok)
	}
	if got := col.Counter(telemetry.JobsCacheDiskHits); got != 1 {
		t.Errorf("disk hit counter = %d", got)
	}
	val, ok = c.Get("bbbb")
	if !ok || string(val) != "second" {
		t.Fatalf("re-evicted entry unreadable: %q, %v", val, ok)
	}
	if got := c.Len(); got != 1 {
		t.Errorf("resident entries = %d, want 1", got)
	}
}

func TestCachePutRefreshSameKey(t *testing.T) {
	c := NewCache(4, 0, "", nil)
	c.Put("k", []byte("one"))
	c.Put("k", []byte("three"))
	val, ok := c.Get("k")
	if !ok || string(val) != "three" {
		t.Fatalf("Get = %q, %v", val, ok)
	}
	if got, want := c.Bytes(), int64(len("three")); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
}

// TestCachePutCopiesInput pins that the cache owns its results: Put
// copies the caller's bytes, so reusing the slice afterwards changes
// neither the stored string nor what Get shares.
func TestCachePutCopiesInput(t *testing.T) {
	c := NewCache(4, 0, "", nil)
	buf := []byte("immutable")
	stored := c.Put("k", buf)
	buf[0] = 'X'
	if stored != "immutable" {
		t.Errorf("Put returned %q after the caller's write", stored)
	}
	if again, _ := c.Get("k"); again != "immutable" {
		t.Errorf("Get = %q: caller mutation reached the cached result", again)
	}
}

// TestCacheHitAllocs pins that a memory hit shares the cached result:
// it allocates nothing, with a live collector counting it.
func TestCacheHitAllocs(t *testing.T) {
	c := NewCache(4, 0, "", telemetry.NewCollector())
	c.Put("k", bytes.Repeat([]byte("x"), 4096))
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get("k"); !ok {
			t.Fatal("k missing")
		}
	}); allocs != 0 {
		t.Errorf("memory hit allocates %v times per Get, want 0", allocs)
	}
}

// TestCacheDiskHitIsARead pins that promoting a disk hit leaves its
// spill file in place: the file is the same before and after the hit.
func TestCacheDiskHitIsARead(t *testing.T) {
	dir := t.TempDir()
	col := telemetry.NewCollector()
	c := NewCache(1, 0, dir, col)
	c.Put("aaaa", []byte("first"))
	c.Put("bbbb", []byte("second")) // evicts aaaa to disk
	path := filepath.Join(dir, "aaaa.result")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if val, ok := c.Get("aaaa"); !ok || val != "first" {
		t.Fatalf("disk hit = %q, %v", val, ok)
	}
	if got := col.Counter(telemetry.JobsCacheDiskHits); got != 1 {
		t.Fatalf("disk hit counter = %d, want 1", got)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("the disk hit replaced its spill file")
	}
}

// TestCachePromoteKeepsRecency pins that a disk hit counts as a use at
// the next warm-up: it touches its file, so a restarted one-entry cache
// warms the promoted key rather than the one stored after it.
func TestCachePromoteKeepsRecency(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(1, 0, dir, nil)
	c.Put("aaaa", []byte("first"))
	c.Put("bbbb", []byte("second")) // evicts aaaa to disk
	// Rapid writes can share an mtime; date both files an hour back, aaaa
	// the older, so only the promote can make aaaa the most recent.
	base := time.Now().Add(-time.Hour)
	for i, key := range []string{"aaaa", "bbbb"} {
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, key+".result"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get("aaaa"); !ok {
		t.Fatal("aaaa missing from the spill")
	}
	col := telemetry.NewCollector()
	fresh := NewCache(1, 0, dir, col)
	if val, ok := fresh.Get("aaaa"); !ok || val != "first" {
		t.Fatalf("fresh cache Get(aaaa) = %q, %v", val, ok)
	}
	if got := col.Counter(telemetry.JobsCacheHits); got != 1 {
		t.Errorf("the promoted key was not warmed: %d memory hits, want 1", got)
	}
}

// TestCacheSpillCorruption pins the spill's integrity check: a file that
// fails its checksum, whether truncated, bit-flipped or written without
// a trailer, is a miss, is deleted and is counted, when a warm-up reads
// it and when a disk hit does.
func TestCacheSpillCorruption(t *testing.T) {
	damage := []struct {
		name string
		file func(b []byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
		{"shorter than its trailer", func(b []byte) []byte { return b[:2] }},
		{"bit-flipped result", func(b []byte) []byte { b[1] ^= 0x10; return b }},
		{"bit-flipped trailer", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"without a trailer", func(b []byte) []byte { return b[:len(b)-spillTrailer] }},
	}
	// spill stores one result per damage case and then an intact one
	// through a one-entry cache, so every damaged key is on disk only,
	// and damages their files.
	spill := func(t *testing.T, c *Cache, dir string) []string {
		var keys []string
		for i, d := range damage {
			keys = append(keys, fmt.Sprintf("k%d", i))
			c.Put(keys[i], []byte("result of "+d.name))
		}
		c.Put("intact", []byte("intact result"))
		for i, d := range damage {
			path := filepath.Join(dir, keys[i]+".result")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, d.file(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return keys
	}
	check := func(t *testing.T, c *Cache, col *telemetry.Collector, dir string, keys []string) {
		t.Helper()
		for i, key := range keys {
			if val, ok := c.Get(key); ok {
				t.Errorf("%s file: Get = %q, want a miss", damage[i].name, val)
			}
			if _, err := os.Stat(filepath.Join(dir, key+".result")); !os.IsNotExist(err) {
				t.Errorf("%s file not deleted: %v", damage[i].name, err)
			}
		}
		if got := col.Counter(telemetry.JobsCacheCorrupt); got != int64(len(damage)) {
			t.Errorf("corrupt counter = %d, want %d", got, len(damage))
		}
		if got := col.Counter(telemetry.JobsCacheMisses); got != int64(len(damage)) {
			t.Errorf("misses counter = %d, want %d", got, len(damage))
		}
		if val, ok := c.Get("intact"); !ok || val != "intact result" {
			t.Errorf("intact entry: Get = %q, %v", val, ok)
		}
	}

	t.Run("warm-up", func(t *testing.T) {
		dir := t.TempDir()
		keys := spill(t, NewCache(1, 0, dir, nil), dir)
		col := telemetry.NewCollector()
		c := NewCache(8, 0, dir, col)
		if got := c.Len(); got != 1 {
			t.Errorf("warmed %d entries, want only the intact one", got)
		}
		if got := col.Counter(telemetry.JobsCacheCorrupt); got != int64(len(damage)) {
			t.Errorf("warm-up counted %d corrupt files, want %d", got, len(damage))
		}
		check(t, c, col, dir, keys)
	})
	t.Run("disk hit", func(t *testing.T) {
		dir := t.TempDir()
		col := telemetry.NewCollector()
		c := NewCache(1, 0, dir, col)
		keys := spill(t, c, dir)
		check(t, c, col, dir, keys)
	})
}

// FuzzSpillDecode is the round-trip oracle for the spill file codec:
// bytes that decodeSpill accepts re-encode to exactly themselves, and any
// result encodes to bytes that decode back to it.
func FuzzSpillDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("a result written without a trailer"))
	f.Add(encodeSpill(""))
	f.Add(encodeSpill("| k | n | bits |\n|---|---|------|\n| 4 | 64 | 118.5 |\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if val, ok := decodeSpill(b); ok {
			if again := encodeSpill(val); !bytes.Equal(again, b) {
				t.Fatalf("decodeSpill(%x) = %q, which re-encodes to %x", b, val, again)
			}
		}
		if val, ok := decodeSpill(encodeSpill(string(b))); !ok || val != string(b) {
			t.Fatalf("result %q encodes and decodes to %q, %v", b, val, ok)
		}
	})
}

func TestCacheWarmFromSpill(t *testing.T) {
	dir := t.TempDir()
	old := NewCache(8, 0, dir, nil)
	old.Put("aaaa", []byte("first"))
	old.Put("bbbb", []byte("second"))
	old.Put("cccc", []byte("third"))
	// Rapid writes can share an mtime; pin distinct ones so the warm
	// order (most recent first) is deterministic in this test.
	base := time.Now().Add(-time.Hour)
	for i, key := range []string{"aaaa", "bbbb", "cccc"} {
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, key+".result"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	col := telemetry.NewCollector()
	c := NewCache(2, 0, dir, col)
	if got := c.Len(); got != 2 {
		t.Fatalf("warmed %d entries, want 2 (entry cap)", got)
	}
	// The two most recently written results are resident; no miss counter
	// fires for them.
	for _, key := range []string{"bbbb", "cccc"} {
		val, ok := c.Get(key)
		if !ok {
			t.Fatalf("%s not warmed", key)
		}
		if want := map[string]string{"bbbb": "second", "cccc": "third"}[key]; string(val) != want {
			t.Fatalf("%s = %q, want %q", key, val, want)
		}
	}
	if got := col.Counter(telemetry.JobsCacheMisses); got != 0 {
		t.Errorf("warmed reads missed %d times", got)
	}
	// The entry past the cap stayed on disk and is still readable.
	if val, ok := c.Get("aaaa"); !ok || string(val) != "first" {
		t.Fatalf("over-cap entry lost: %q, %v", val, ok)
	}
	if got := col.Counter(telemetry.JobsCacheDiskHits); got != 1 {
		t.Errorf("disk hit counter = %d", got)
	}
	// Byte cap bounds warming too (first entry always admitted).
	tiny := NewCache(8, 3, dir, nil)
	if got := tiny.Len(); got != 1 {
		t.Errorf("byte-capped warm loaded %d entries, want 1", got)
	}
	// Corrupt leftovers are skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "weird.tmp1234"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	again := NewCache(8, 0, dir, nil)
	if _, ok := again.Get("weird"); ok {
		t.Error("temp leftover warmed as an entry")
	}
}

// TestCacheConcurrentHammer races stores, memory hits and disk promotes
// on one cache: every key is spilled before the goroutines start and the
// cache holds half of them, so each goroutine's read of the key eight
// places ahead of the one it stores is mostly a disk hit, and must hit.
func TestCacheConcurrentHammer(t *testing.T) {
	col := telemetry.NewCollector()
	c := NewCache(8, 1<<10, t.TempDir(), col)
	key := func(i int) string { return fmt.Sprintf("k%d", i%16) }
	for i := 0; i < 16; i++ {
		c.Put(key(i), []byte(key(i)+"-value"))
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := key(g*7 + i)
				c.Put(k, []byte(k+"-value"))
				if val, ok := c.Get(k); ok && val != k+"-value" {
					t.Errorf("corrupt read %q", val)
					return
				}
				ahead := key(g*7 + i + 8)
				if val, ok := c.Get(ahead); !ok || val != ahead+"-value" {
					t.Errorf("Get(%s) = %q, %v: every key is spilled", ahead, val, ok)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if col.Counter(telemetry.JobsCacheDiskHits) == 0 {
		t.Error("no read was promoted from disk")
	}
	if got := col.Counter(telemetry.JobsCacheCorrupt); got != 0 {
		t.Errorf("%d spill files failed their checksum under concurrent use", got)
	}
}

// Len reports the number of resident (in-memory) entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes reports the resident result bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
