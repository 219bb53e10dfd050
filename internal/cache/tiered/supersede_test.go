package tiered

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"piggyback/internal/cache"
)

// queueDemotion builds a single-shard store with no writer goroutine, puts
// a 600-byte entry for url, gives it a hit, and evicts it with a second
// entry, so its demotion sits in the queue until the test calls pump.
func queueDemotion(t *testing.T, url string, now int64) (*Tiered, cache.Entry) {
	t.Helper()
	ts, err := open(cache.NewSharded(1<<10, 1, nil), Config{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	e := entry(url, 600, now)
	ts.Put(e, now)
	if _, ok := ts.Lookup(url, now); !ok {
		t.Fatal("entry not cached")
	}
	ts.Put(entry("http://o/filler", 600, now), now) // evicts url
	if ts.RAM().Contains(url) || len(ts.demoteQ) != 1 {
		t.Fatalf("want %s evicted with one demotion queued, queue holds %d", url, len(ts.demoteQ))
	}
	return ts, e
}

// pump hands every queued demotion to the writer's handler.
func pump(ts *Tiered) {
	for {
		select {
		case it := <-ts.demoteQ:
			ts.handle(it)
		default:
			return
		}
	}
}

// TestQueuedDemotionAfterPut: a newer version Put while the old copy's
// demotion is queued must not bring the old copy back from disk once the
// newer one leaves RAM.
func TestQueuedDemotionAfterPut(t *testing.T) {
	now := int64(1000)
	ts, old := queueDemotion(t, "http://o/a", now)
	newer := entry("http://o/a", 600, now)
	newer.LastModified = old.LastModified + 50
	ts.Put(newer, now)
	pump(ts)
	if ts.diskContains("http://o/a") {
		t.Fatal("queued demotion of the replaced copy was indexed")
	}
	ts.RAM().Delete("http://o/a") // the newer copy leaves RAM undemoted
	if v, ok := ts.Lookup("http://o/a", now+1); ok {
		t.Fatalf("superseded copy served (Last-Modified %d)", v.LastModified)
	}
	if len(ts.superseded) != 0 {
		t.Fatalf("marks outlived the drained queue: %v", ts.superseded)
	}

	// With both copies queued, only the one evicted after the Put lands.
	ts, old = queueDemotion(t, "http://o/b", now)
	newer = entry("http://o/b", 600, now)
	newer.LastModified = old.LastModified + 50
	ts.Put(newer, now)
	ts.Lookup("http://o/b", now)
	ts.Put(entry("http://o/filler", 600, now), now) // evicts the newer copy
	if len(ts.demoteQ) != 2 {
		t.Fatalf("want both copies queued, queue holds %d", len(ts.demoteQ))
	}
	pump(ts)
	if v, ok := ts.Lookup("http://o/b", now+2); !ok || v.LastModified != newer.LastModified {
		t.Fatalf("current copy not demoted: ok=%v view=%+v", ok, v)
	}
}

// TestQueuedDemotionAfterDelete: a Delete while the demotion is queued is
// final.
func TestQueuedDemotionAfterDelete(t *testing.T) {
	now := int64(1000)
	ts, _ := queueDemotion(t, "http://o/a", now)
	if ts.Delete("http://o/a") {
		t.Fatal("Delete found the entry in a tier before the demotion landed")
	}
	pump(ts)
	if _, ok := ts.Lookup("http://o/a", now+1); ok {
		t.Fatal("deleted entry served from disk")
	}
}

// TestQueuedDemotionAfterPiggybackInvalidation: a piggyback naming a newer
// Last-Modified misses both tiers while the demotion is queued; the old
// copy must not land. A piggyback that does not outdate the copy leaves
// the demotion alone.
func TestQueuedDemotionAfterPiggybackInvalidation(t *testing.T) {
	now := int64(1000)
	ts, old := queueDemotion(t, "http://o/a", now)
	if out := ts.ApplyPiggyback("http://o/a", old.LastModified+50, 0, 0, now); out != cache.PiggybackMiss {
		t.Fatalf("piggyback outcome %v, want a miss on both tiers", out)
	}
	pump(ts)
	if v, ok := ts.Lookup("http://o/a", now+1); ok {
		t.Fatalf("invalidated copy served (Last-Modified %d, Expires %d)", v.LastModified, v.Expires)
	}

	ts, old = queueDemotion(t, "http://o/b", now)
	ts.ApplyPiggyback("http://o/b", old.LastModified, 0, 0, now)
	pump(ts)
	if !ts.diskContains("http://o/b") {
		t.Fatal("a piggyback for the same version dropped the demotion")
	}
}

// TestTieredConcurrentVersions runs the demotion writer against concurrent
// Puts, Deletes, piggyback invalidations and Lookups over four small
// shards. Each goroutine owns its URLs, so it knows the one version a
// Lookup may return: the newest it put, or none after a Delete or an
// invalidation. Run it with -race -count=10.
func TestTieredConcurrentVersions(t *testing.T) {
	ts, err := New(cache.NewSharded(4<<10, 4, nil), Config{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	const workers, urls, steps = 4, 6, 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			now := int64(1000)
			want := make([]int64, urls) // newest Last-Modified put; 0: must miss
			for s := 0; s < steps; s++ {
				now++
				i := rng.Intn(urls)
				url := fmt.Sprintf("http://o/w%d/u%d", w, i)
				switch op := rng.Intn(10); {
				case op < 4:
					e := entry(url, 200+int64(rng.Intn(400)), now)
					e.LastModified, e.Expires = now, now+1_000_000
					ts.Put(e, now)
					want[i] = now
				case op < 5:
					ts.Delete(url)
					want[i] = 0
				case op < 6:
					if want[i] != 0 {
						ts.ApplyPiggyback(url, want[i]+1, 0, 0, now)
						want[i] = 0
					}
				case op < 7 && s%5 == 0:
					ts.Flush() // let queued copies land, so Lookups promote
				default:
					if v, ok := ts.Lookup(url, now); ok && v.LastModified != want[i] {
						t.Errorf("%s: Lookup returned Last-Modified %d, want %d (0: none)", url, v.LastModified, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := ts.Stats(); st.Demotions == 0 || st.Promotions == 0 {
		t.Fatalf("no demotions (%d) or promotions (%d): the writer was not exercised", st.Demotions, st.Promotions)
	}
}
