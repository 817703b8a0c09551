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

func TestCacheGetReturnsCopy(t *testing.T) {
	c := NewCache(4, 0, "", nil)
	c.Put("k", []byte("immutable"))
	val, _ := c.Get("k")
	val[0] = 'X'
	again, _ := c.Get("k")
	if string(again) != "immutable" {
		t.Error("caller mutation reached the cached bytes")
	}
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

func TestCacheConcurrentHammer(t *testing.T) {
	c := NewCache(8, 1<<10, t.TempDir(), telemetry.NewCollector())
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%16)
				c.Put(key, []byte(key+"-value"))
				if val, ok := c.Get(key); ok && string(val) != key+"-value" {
					t.Errorf("corrupt read %q", val)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
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
