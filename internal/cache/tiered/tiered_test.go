package tiered

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"piggyback/internal/cache"
	"piggyback/internal/obs"
)

// newTiered builds a single-shard tiered store over dir (capacity small
// enough that tests can force evictions deterministically).
func newTiered(t testing.TB, dir string, ramBytes int64, cfg Config) *Tiered {
	t.Helper()
	cfg.Dir = dir
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	ts, err := New(cache.NewSharded(ramBytes, 1, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func entry(url string, size int64, now int64) cache.Entry {
	return cache.Entry{
		URL: url, Size: size, LastModified: now - 100, Expires: now + 300,
		FetchedAt: now, Body: []byte(strings.Repeat(url, int(size)/len(url)+1))[:size],
		ContentType: "text/html", LastModifiedHTTP: "Mon, 01 Jan 2024 00:00:00 GMT",
	}
}

// TestTieredDemotePromote: an entry with utility (a hit) demotes on
// eviction, and a later lookup promotes it from disk without data loss.
func TestTieredDemotePromote(t *testing.T) {
	ts := newTiered(t, t.TempDir(), 1<<10, Config{})
	defer ts.Close()
	now := int64(1000)

	a := entry("http://o/a", 600, now)
	ts.Put(a, now)
	if _, ok := ts.Lookup("http://o/a", now); !ok { // utility: one hit
		t.Fatal("a not cached")
	}
	ts.Put(entry("http://o/b", 600, now), now) // evicts a
	ts.Flush()
	if got := ts.Stats().Demotions; got != 1 {
		t.Fatalf("want 1 demotion, got %d", got)
	}
	if !ts.Contains("http://o/a") {
		t.Fatal("a should be disk-resident after demotion")
	}
	v, ok := ts.Lookup("http://o/a", now+1)
	if !ok {
		t.Fatal("disk-resident a should be servable")
	}
	if string(v.Body) != string(a.Body) || v.ContentType != a.ContentType ||
		v.LastModified != a.LastModified || v.LastModifiedHTTP != a.LastModifiedHTTP {
		t.Fatalf("promoted view diverged: %+v", v)
	}
	st := ts.Stats()
	if st.DiskHits != 1 || st.Promotions != 1 {
		t.Fatalf("want 1 disk hit / 1 promotion, got %d/%d", st.DiskHits, st.Promotions)
	}
	// Promotion consumed the disk copy; the entry now lives in RAM.
	if !ts.RAM().Contains("http://o/a") {
		t.Fatal("promoted entry should be RAM-resident")
	}
	if ts.diskContains("http://o/a") {
		t.Fatal("promotion should consume the disk copy")
	}
}

// TestTieredDemoteGate: the policy-informed gate spills only entries the
// replacement machinery saw utility in — a never-hit, never-hinted entry
// is dropped, not written to disk.
func TestTieredDemoteGate(t *testing.T) {
	ts := newTiered(t, t.TempDir(), 1<<10, Config{})
	defer ts.Close()
	now := int64(1000)

	ts.Put(entry("http://o/cold", 600, now), now) // no hit, no hint
	ts.Put(entry("http://o/warm", 600, now), now) // evicts cold
	ts.Lookup("http://o/warm", now)               // utility for warm
	ts.Put(entry("http://o/next", 600, now), now) // evicts warm
	ts.Flush()
	if ts.Contains("http://o/cold") {
		t.Fatal("cold entry (no utility) must not demote")
	}
	if !ts.Contains("http://o/warm") {
		t.Fatal("warm entry (hit) must demote")
	}
	st := ts.Stats()
	if st.Demotions != 1 {
		t.Fatalf("want exactly 1 demotion, got %d", st.Demotions)
	}
}

// TestTieredStatsFold is the satellite-3 regression: hit/miss accounting
// behind the Store interface counts each logical lookup exactly once —
// a disk hit is one hit, not a RAM miss plus a disk hit, and the
// hit-rate arithmetic stays consistent.
func TestTieredStatsFold(t *testing.T) {
	ts := newTiered(t, t.TempDir(), 1<<10, Config{})
	defer ts.Close()
	now := int64(1000)
	lookups := int64(0)

	ts.Put(entry("http://o/a", 600, now), now)
	ts.Lookup("http://o/a", now) // RAM hit
	lookups++
	ts.Put(entry("http://o/b", 600, now), now) // evicts + demotes a
	ts.Flush()
	ts.Lookup("http://o/a", now) // disk hit
	lookups++
	ts.Lookup("http://o/missing", now) // miss
	lookups++
	ts.Lookup("http://o/a", now) // RAM hit again (promoted)
	lookups++

	st := ts.Stats()
	if st.Hits+st.Misses != lookups {
		t.Fatalf("lookup accounting double-counts: hits %d + misses %d != %d lookups",
			st.Hits, st.Misses, lookups)
	}
	if st.Hits != 3 || st.Misses != 1 || st.DiskHits != 1 {
		t.Fatalf("want hits/misses/diskHits 3/1/1, got %d/%d/%d", st.Hits, st.Misses, st.DiskHits)
	}
	if want := 0.75; st.HitRate() != want {
		t.Fatalf("hit rate %v, want %v", st.HitRate(), want)
	}
}

// TestTieredRestartWarm: Close flushes the RAM working set and snapshots
// the index; a new store over the same directory serves every entry from
// disk without any origin involvement.
func TestTieredRestartWarm(t *testing.T) {
	dir := t.TempDir()
	now := int64(1000)
	const n = 20

	ts := newTiered(t, dir, 1<<20, Config{})
	bodies := make(map[string]string)
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://o/r%02d", i)
		e := entry(url, 512, now)
		ts.Put(e, now)
		bodies[url] = string(e.Body)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	re := newTiered(t, dir, 1<<20, Config{})
	defer re.Close()
	if got := re.Len(); got != n {
		t.Fatalf("reopened store indexes %d entries, want %d", got, n)
	}
	for url, body := range bodies {
		v, ok := re.Lookup(url, now+10)
		if !ok || string(v.Body) != body {
			t.Fatalf("restart-warm lookup of %s failed: ok=%v", url, ok)
		}
	}
	st := re.Stats()
	if st.DiskHits != n || st.Hits != n || st.Misses != 0 {
		t.Fatalf("warm restart stats: diskHits=%d hits=%d misses=%d, want %d/%d/0",
			st.DiskHits, st.Hits, st.Misses, n, n)
	}
}

// TestTieredRestartFreshness: piggyback freshening of a disk-resident
// entry survives the snapshot (the index owns freshness, not the record).
func TestTieredRestartFreshness(t *testing.T) {
	dir := t.TempDir()
	now := int64(1000)
	ts := newTiered(t, dir, 1<<10, Config{})
	ts.Put(entry("http://o/a", 600, now), now)
	ts.Lookup("http://o/a", now)
	ts.Put(entry("http://o/b", 600, now), now) // demote a
	ts.Flush()
	if got := ts.ApplyPiggyback("http://o/a", now-100, now+9999, now+9999, now); got != cache.PiggybackRefreshed {
		t.Fatalf("disk-resident refresh: got %v", got)
	}
	// Invalidation of a disk-resident copy deletes it.
	ts.Lookup("http://o/b", now)
	ts.Put(entry("http://o/c", 600, now), now) // demote b
	ts.Flush()
	if got := ts.ApplyPiggyback("http://o/b", now+500, now, now, now); got != cache.PiggybackInvalidated {
		t.Fatalf("disk-resident invalidation: got %v", got)
	}
	if ts.Contains("http://o/b") {
		t.Fatal("invalidated disk entry still present")
	}
	ts.Close()

	re := newTiered(t, dir, 1<<10, Config{})
	defer re.Close()
	v, ok := re.PeekView("http://o/a")
	if !ok || v.Expires != now+9999 {
		t.Fatalf("freshened expiry lost across restart: %+v %v", v, ok)
	}
}

// TestTieredCompaction: promoting (consuming) most of a sealed segment's
// records leaves holes; maintenance rewrites the survivors and reclaims
// the space.
func TestTieredCompaction(t *testing.T) {
	// Tiny segments so a handful of records spans several files.
	ts := newTiered(t, t.TempDir(), 1<<10, Config{SegmentBytes: 2048})
	defer ts.Close()
	now := int64(1000)
	const n = 16
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://o/r%02d", i)
		ts.Put(entry(url, 600, now), now)
		ts.Lookup(url, now) // utility so eviction demotes
	}
	ts.Flush()
	before := ts.Stats()
	if before.Demotions < n-1 {
		t.Fatalf("expected ≥%d demotions, got %d", n-1, before.Demotions)
	}
	// Promote most disk entries; each promotion punches a hole (and the
	// displaced RAM entry re-demotes into the active segment).
	for i := 0; i < n-1; i++ {
		ts.Lookup(fmt.Sprintf("http://o/r%02d", i), now+int64(i))
	}
	ts.Flush()
	st := ts.Stats()
	if st.Compactions == 0 {
		t.Fatalf("hole churn triggered no compactions: %+v", st)
	}
	// Everything still indexed must still be readable.
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://o/r%02d", i)
		if ts.Contains(url) {
			if _, ok := ts.PeekView(url); !ok {
				t.Fatalf("%s indexed but unreadable after compaction", url)
			}
		}
	}
}

// TestTieredDiskCapacity: the disk footprint stays bounded; overflow
// drops whole oldest segments.
func TestTieredDiskCapacity(t *testing.T) {
	ts := newTiered(t, t.TempDir(), 1<<10, Config{SegmentBytes: 2048, DiskBytes: 8 << 10})
	defer ts.Close()
	now := int64(1000)
	for i := 0; i < 64; i++ {
		url := fmt.Sprintf("http://o/r%03d", i)
		ts.Put(entry(url, 600, now), now)
		ts.Lookup(url, now)
	}
	ts.Flush()
	st := ts.Stats()
	if st.DiskBytes > 8<<10 {
		t.Fatalf("disk footprint %d exceeds cap %d", st.DiskBytes, 8<<10)
	}
	if st.Demotions < 32 {
		t.Fatalf("expected sustained demotions, got %d", st.Demotions)
	}
}

// TestTieredInstrument: the cache.tier.* counters mirror the internal
// atomics, including when re-instrumented into a fresh registry (the
// restart path re-uses the store with a new proxy).
func TestTieredInstrument(t *testing.T) {
	ts := newTiered(t, t.TempDir(), 1<<10, Config{})
	defer ts.Close()
	now := int64(1000)
	ts.Put(entry("http://o/a", 600, now), now)
	ts.Lookup("http://o/a", now)
	ts.Put(entry("http://o/b", 600, now), now)
	ts.Flush()
	ts.Lookup("http://o/a", now) // disk hit + promotion

	reg := obs.NewRegistry()
	ts.Instrument(reg, "cache")
	snap := reg.Snapshot()
	st := ts.Stats()
	for name, want := range map[string]int64{
		"cache.tier.demotions":  st.Demotions,
		"cache.tier.promotions": st.Promotions,
		"cache.tier.disk_hits":  st.DiskHits,
		"cache.tier.disk_bytes": st.DiskBytes,
	} {
		if got := snap.Counter(name); got != want {
			t.Fatalf("%s = %d, want %d (stats %+v)", name, got, want, st)
		}
	}
	// Re-instrument into a second registry: counters must resync, and
	// live increments must land in the new one.
	reg2 := obs.NewRegistry()
	ts.Instrument(reg2, "cache")
	ts.Put(entry("http://o/c", 600, now), now) // evicts + demotes a (hit above)
	ts.Flush()
	if got, want := reg2.Snapshot().Counter("cache.tier.demotions"), ts.Stats().Demotions; got != want {
		t.Fatalf("re-instrumented demotions = %d, want %d", got, want)
	}
}

// TestTieredDifferential drives the plain Cache and a shards==1 Sharded
// through one randomized op sequence via the cache.Store interface and
// asserts identical observable behaviour at every step — the two
// implementations are interchangeable wherever a Store is accepted.
func TestTieredDifferential(t *testing.T) {
	const capacity = 4 << 10
	plain := cache.New(capacity, cache.PiggybackLRU{})
	sharded := cache.NewSharded(capacity, 1, nil)
	stores := []cache.Store{plain, sharded}

	rng := rand.New(rand.NewSource(99))
	now := int64(1000)
	for step := 0; step < 3000; step++ {
		now++
		url := fmt.Sprintf("http://o/u%02d", rng.Intn(40))
		// Draw the op and its parameters once, apply to both stores.
		op := rng.Intn(100)
		size := int64(64 + rng.Intn(capacity/4))
		lm := now - int64(rng.Intn(500))
		exp := now + int64(rng.Intn(400))
		pre := rng.Intn(4) == 0
		var outs [2]string
		for i, st := range stores {
			switch {
			case op < 40:
				e := cache.Entry{URL: url, Size: size, LastModified: lm,
					Expires: exp, FetchedAt: now, Body: []byte(url),
					ContentType: "text/html", Prefetched: pre}
				outs[i] = fmt.Sprint(st.Put(e, now))
			case op < 65:
				v, ok := st.Lookup(url, now)
				outs[i] = fmt.Sprint(ok, v.Expires, v.WasPrefetched, string(v.Body))
			case op < 72:
				outs[i] = fmt.Sprint(st.Freshen(url, exp))
			case op < 79:
				outs[i] = fmt.Sprint(st.Hint(url, exp, now))
			case op < 84:
				outs[i] = fmt.Sprint(st.Pin(url, exp, now))
			case op < 89:
				outs[i] = fmt.Sprint(st.Delete(url))
			case op < 94:
				v, ok := st.PeekView(url)
				outs[i] = fmt.Sprint(ok, v.Expires, string(v.Body), st.Contains(url))
			default:
				outs[i] = fmt.Sprint(st.ApplyPiggyback(url, lm, now+300, now+600, now))
			}
		}
		if outs[1] != outs[0] {
			t.Fatalf("step %d: sharded diverged from plain: %q vs %q", step, outs[1], outs[0])
		}
		if s0, s1 := plain.Stats(), sharded.Stats(); s0 != s1 {
			t.Fatalf("step %d: stats diverged: plain %+v sharded %+v", step, s0, s1)
		}
		if plain.Used() != sharded.Used() || plain.Len() != sharded.Len() {
			t.Fatalf("step %d: occupancy diverged", step)
		}
	}
	st := plain.Stats()
	if st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("sequence exercised no hits (%d) or evictions (%d) — test is vacuous", st.Hits, st.Evictions)
	}
}

// TestTieredCloseIdempotent: double Close must not panic or double-flush.
func TestTieredCloseIdempotent(t *testing.T) {
	ts := newTiered(t, t.TempDir(), 1<<10, Config{})
	ts.Put(entry("http://o/a", 100, 1000), 1000)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTieredSnapshotAtomic: a crash during snapshot write (simulated by a
// leftover .tmp) must not shadow the real snapshot.
func TestTieredSnapshotAtomic(t *testing.T) {
	dir := t.TempDir()
	now := int64(1000)
	ts := newTiered(t, dir, 1<<20, Config{})
	ts.Put(entry("http://o/a", 512, now), now)
	ts.Close()
	if err := os.WriteFile(filepath.Join(dir, "index.snap.tmp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := newTiered(t, dir, 1<<20, Config{})
	defer re.Close()
	if _, ok := re.Lookup("http://o/a", now); !ok {
		t.Fatal("leftover snapshot temp file broke the restart")
	}
}
