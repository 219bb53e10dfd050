package trace

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// TestSortByTimeMatchesStableSort checks SortByTime against sort.SliceStable
// on random logs dense with equal timestamps, where any instability shows
// as a reordering of the tied records.
func TestSortByTimeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(64)
		if iter%10 == 0 {
			n = rng.Intn(20000)
		}
		span := 1 + rng.Int63n(int64(n/4+2)) // few distinct times: many ties
		l := make(Log, n)
		for i := range l {
			l[i] = Record{Time: rng.Int63n(span) - span/2, Client: strconv.Itoa(i), Size: int64(i)}
		}
		want := slices.Clone(l)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })
		l.SortByTime()
		if !slices.Equal(l, want) {
			t.Fatalf("iter %d (n=%d, span=%d): SortByTime differs from sort.SliceStable", iter, n, span)
		}
	}
}

// sessionOrderLog builds n records the way a trace generator emits them:
// session after session, each starting at a random time in a four-week
// window and advancing by seconds, so the log is locally ordered and
// globally shuffled, with many equal timestamps.
func sessionOrderLog(n int) Log {
	rng := rand.New(rand.NewSource(7))
	l := make(Log, 0, n)
	for len(l) < n {
		now := 899251200 + rng.Int63n(28*86400)
		client := "c" + strconv.Itoa(rng.Intn(10000))
		for k := 1 + rng.Intn(20); k > 0 && len(l) < n; k-- {
			l = append(l, Record{Time: now, Client: client, Method: "GET", URL: "/p/" + strconv.Itoa(rng.Intn(1100)), Status: 200})
			now += rng.Int63n(30)
		}
	}
	return l
}

func BenchmarkSortByTime(b *testing.B) {
	src := sessionOrderLog(240000)
	l := make(Log, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(l, src)
		b.StartTimer()
		l.SortByTime()
	}
}
