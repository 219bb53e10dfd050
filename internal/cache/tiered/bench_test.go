package tiered

import (
	"fmt"
	"testing"

	"piggyback/internal/cache"
)

// BenchmarkTieredRAMHit measures the RAM-hit fast path through the
// Tiered wrapper. CI gates it (benchgate) so the disk tier's existence
// costs the hot path nothing: the delta vs a bare Sharded lookup must
// stay at 0 allocs/op.
func BenchmarkTieredRAMHit(b *testing.B) {
	for _, tier := range []string{"bare", "tiered"} {
		b.Run(tier, func(b *testing.B) {
			ram := cache.NewSharded(64<<20, 4, nil)
			var s cache.Store = ram
			if tier == "tiered" {
				ts, err := New(cache.NewSharded(64<<20, 4, nil), Config{Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				defer ts.Close()
				s = ts
			}
			now := int64(1000)
			for i := 0; i < 64; i++ {
				s.Put(entry(fmt.Sprintf("http://o/h%02d", i), 2048, now), now)
			}
			urls := make([]string, 64)
			for i := range urls {
				urls[i] = fmt.Sprintf("http://o/h%02d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Lookup(urls[i&63], now); !ok {
					b.Fatal("miss on warm set")
				}
			}
		})
	}
}

// BenchmarkTieredPromote measures the disk round trip: a synchronous
// demote (append to the active segment) followed by a Lookup that
// promotes the entry back to RAM. This is the cost of a disk hit.
func BenchmarkTieredPromote(b *testing.B) {
	ts, err := New(cache.NewSharded(64<<20, 4, nil), Config{
		Dir: b.TempDir(), DiskBytes: 1 << 30, SegmentBytes: 64 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ts.Close()
	now := int64(1000)
	e := entry("http://o/cycle", 4096, now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Demote synchronously (handling the item here instead of on the
		// writer keeps the benchmark deterministic) and promote via the
		// public lookup path.
		ts.queued.Add(1)
		ts.handle(demoteItem{e: e, seq: ts.evictSeq.Add(1)})
		ts.RAM().Delete(e.URL)
		if _, ok := ts.Lookup(e.URL, now); !ok {
			b.Fatal("promotion missed")
		}
		ts.RAM().Delete(e.URL)
	}
}
