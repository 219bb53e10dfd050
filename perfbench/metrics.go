package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"piggyback/internal/cache"
	"piggyback/internal/obs"
	"piggyback/internal/proxy"
	"piggyback/internal/server"
)

// snapshot is every counter the benchmark reads, at one instant.
type snapshot struct {
	proxy    proxy.Stats
	origin   server.Stats
	store    cache.StoreStats
	pobs     obs.Snapshot // proxy registry: wire.server.*, wire.upstream.*, cache.*
	oobs     obs.Snapshot // origin registry: wire.server.*, server.*
	mem      runtime.MemStats
	cpu      time.Duration // process user + system CPU
	spans    layerTotals
	modifies int64
}

func takeSnapshot(d *deployment) snapshot {
	s := snapshot{
		proxy:    d.st.proxy.Stats(),
		origin:   d.st.origin.Stats(),
		store:    d.st.proxy.CacheStats(),
		pobs:     d.st.proxy.Obs().Snapshot(),
		oobs:     d.st.origin.Obs().Snapshot(),
		cpu:      cpuTime(),
		modifies: d.rp.modifies.Load(),
	}
	if d.st.layers != nil {
		s.spans = d.st.layers.load()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window is one measured stretch of a replay: the clients' tally and the
// counters' movement over it.
type window struct {
	t       tally
	elapsed time.Duration
	a, b    snapshot
	// Per-slice throughput and latency percentiles (untraced windows).
	sliceRPS, sliceP50, sliceP99 []float64
}

func (w *window) counter(pobs bool, name string) int64 {
	if pobs {
		return w.b.pobs.Counter(name) - w.a.pobs.Counter(name)
	}
	return w.b.oobs.Counter(name) - w.a.oobs.Counter(name)
}

func (w *window) rps() float64 { return float64(w.t.completed) / w.elapsed.Seconds() }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the q-quantile of sorted values (nearest rank).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// slice is the interval the rate and latency metrics are taken over. Each
// half-second slice of every window gets its own throughput and
// percentiles, and the median over all slices is reported, so a burst of
// host noise that disturbs a few slices does not move the result. A slice
// holds 6k-30k completions, so 60 or more lie beyond its p99.
const slice = 500 * time.Millisecond

// sliceStats computes the throughput and latency percentiles of each whole
// slice of the window and releases the window's samples.
func (w *window) sliceStats() {
	s := w.t.samples
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) // by completion time
	var lat []int64
	i := 0
	for k := int64(1); k <= int64(w.elapsed/slice); k++ {
		end := uint64(k*slice.Microseconds()) << 32
		lat = lat[:0]
		first := i
		for ; i < len(s) && s[i] < end; i++ {
			lat = append(lat, int64(s[i]&math.MaxUint32))
		}
		if len(lat) < 2 {
			continue
		}
		// Completions per second between the slice's first and last.
		span := float64(s[i-1]>>32-s[first]>>32) / 1e6
		w.sliceRPS = append(w.sliceRPS, ratio(float64(len(lat)-1), span))
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		w.sliceP50 = append(w.sliceP50, float64(percentile(lat, 0.50))/1e3)
		w.sliceP99 = append(w.sliceP99, float64(percentile(lat, 0.99))/1e3)
	}
	w.t.samples = nil
}

// endToEnd computes the user-visible metrics of the untraced windows.
// Throughput and latency percentiles are medians over every window's
// slices, CPU per request the median over the windows; counts are pooled.
func endToEnd(wins []window, setupSamples []float64) []metric {
	var rps, p50, p99, cpu []float64
	var n, attempted, failed, hits, stale, originReqs, originBytes float64
	for i := range wins {
		w := &wins[i]
		rps = append(rps, w.sliceRPS...)
		p50 = append(p50, w.sliceP50...)
		p99 = append(p99, w.sliceP99...)
		c := float64(w.t.completed)
		cpu = append(cpu, ratio(float64((w.b.cpu-w.a.cpu).Microseconds()), c))
		n += c
		attempted += float64(w.t.attempted)
		failed += float64(w.t.failed)
		hits += float64(w.t.hits)
		stale += float64(w.t.stale)
		originReqs += float64(w.b.origin.Requests - w.a.origin.Requests)
		originBytes += float64(w.counter(false, "wire.server.bytes_out")) +
			float64(w.b.origin.PiggybackBytes-w.a.origin.PiggybackBytes)
	}
	return []metric{
		{"throughput_rps", median(rps), "req/s"},
		{"latency_p50_us", median(p50), "us"},
		{"latency_p99_us", median(p99), "us"},
		{"latency_samples", n, "count"},
		{"fresh_hit_ratio", ratio(hits, n), "ratio"},
		{"origin_reqs_per_kreq", ratio(1000*originReqs, n), "req/kreq"},
		{"origin_bytes_per_req", ratio(originBytes, n), "B/req"},
		{"stale_frac", ratio(stale, n), "ratio"},
		{"error_frac", ratio(failed, attempted), "ratio"},
		{"cpu_us_per_req", median(cpu), "us/req"},
		{"rss_peak_mb", peakRSSMiB(), "MiB"},
		{"setup_s", median(setupSamples), "s"},
	}
}

// perLayer computes the per-layer metrics of a traced window; untracedRPS
// is the throughput of the matching untraced window, for the tracing
// overhead. The six per-request self times (wire.client_side_us,
// proxy.self_us, cache.self_us, upstream.wire_us, origin.self_us,
// volumes.self_us) sum to trace.client_us: each is a layer's span total
// minus the spans nested in it, and wire.client_side_us is the client span
// minus the proxy span, the part of the client-observed time no program
// layer accounts for.
func perLayer(w *window, untracedRPS float64) []metric {
	n := float64(w.t.completed)
	perK := func(v int64) float64 { return ratio(1000*float64(v), n) }
	us := func(ns int64) float64 { return ratio(float64(ns)/1e3, n) }
	sp := w.b.spans.sub(w.a.spans)
	p := w.b.proxy
	pa := w.a.proxy
	o := w.b.origin
	oa := w.a.origin
	cs := w.b.store
	ca := w.a.store

	up, _ := w.b.pobs.Hist("wire.upstream.latency_us")
	if prev, ok := w.a.pobs.Hist("wire.upstream.latency_us"); ok {
		up = up.Sub(prev)
	}
	exchangeNs := up.Sum * 1e3
	proxyNs := sp.proxyHit.ns + sp.proxyUpstream.ns
	cacheSp := sp.cache()
	volumesNs := sp.observe.ns + sp.piggyback.ns

	clientUs := us(w.t.clientNs)
	wireUs := us(w.t.clientNs - proxyNs)
	proxySelfUs := us(proxyNs - cacheSp.ns - exchangeNs)
	cacheUs := us(cacheSp.ns)
	upWireUs := us(exchangeNs - sp.origin.ns)
	originSelfUs := us(sp.origin.ns - volumesNs)
	volumesUs := us(volumesNs)

	validations := p.Validations - pa.Validations
	upReqs := w.counter(true, "wire.upstream.requests")
	originReqs := o.Requests - oa.Requests
	demotions := cs.Demotions - ca.Demotions
	msgs := o.PiggybacksSent - oa.PiggybacksSent
	quantile := func(q float64) float64 {
		if up.Count == 0 {
			return 0
		}
		return up.Quantile(q)
	}
	return []metric{
		{"trace.overhead_frac", 1 - ratio(w.rps(), untracedRPS), "ratio"},
		{"trace.client_us", clientUs, "us/req"},

		{"gen.issue_us", us(w.t.genNs), "us/req"},
		{"gen.origin_modifies_per_kreq", perK(w.b.modifies - w.a.modifies), "count/kreq"},

		{"wire.client_side_us", wireUs, "us/req"},
		{"wire.server_writes_per_req", ratio(float64(w.counter(true, "wire.server.syscalls.writes")), float64(w.counter(true, "wire.server.requests"))), "count/req"},
		{"wire.server_reads_per_req", ratio(float64(w.counter(true, "wire.server.syscalls.reads")), float64(w.counter(true, "wire.server.requests"))), "count/req"},

		{"proxy.serve_hit_us", sp.proxyHit.meanNs() / 1e3, "us"},
		{"proxy.serve_upstream_us", sp.proxyUpstream.meanNs() / 1e3, "us"},
		{"proxy.self_us", proxySelfUs, "us/req"},
		{"proxy.validations_per_kreq", perK(int64(validations)), "count/kreq"},
		{"proxy.not_modified_per_kreq", perK(int64(p.NotModified - pa.NotModified)), "count/kreq"},
		{"proxy.miss_fetches_per_kreq", perK(int64(p.MissFetches - pa.MissFetches)), "count/kreq"},
		{"proxy.refreshes_per_kreq", perK(int64(p.Refreshes - pa.Refreshes)), "count/kreq"},
		{"proxy.invalidations_per_kreq", perK(int64(p.Invalidations - pa.Invalidations)), "count/kreq"},
		{"proxy.delta_updates_per_kreq", perK(int64(p.DeltaUpdates - pa.DeltaUpdates)), "count/kreq"},
		{"proxy.singleflight_shared_per_kreq", perK(int64(p.SingleflightShared - pa.SingleflightShared)), "count/kreq"},
		{"proxy.validation_304_ratio", ratio(float64(p.NotModified-pa.NotModified), float64(validations)), "ratio"},
		{"proxy.piggyback_useful_ratio", ratio(float64(p.Refreshes-pa.Refreshes+p.Invalidations-pa.Invalidations), float64(p.PiggybackElements-pa.PiggybackElements)), "ratio"},

		{"cache.lookup_ns", sp.lookup.meanNs(), "ns"},
		{"cache.put_ns", sp.put.meanNs(), "ns"},
		{"cache.update_ns", sp.update.meanNs(), "ns"},
		{"cache.self_us", cacheUs, "us/req"},
		{"cache.calls_per_req", ratio(float64(cacheSp.n), n), "count/req"},
		{"cache.hit_ratio", ratio(float64(cs.Hits-ca.Hits), float64(cs.Hits-ca.Hits+cs.Misses-ca.Misses)), "ratio"},
		{"cache.evictions_per_kreq", perK(cs.Evictions - ca.Evictions), "count/kreq"},
		{"tier.demotions_per_kreq", perK(demotions), "count/kreq"},
		{"tier.promotions_per_kreq", perK(cs.Promotions - ca.Promotions), "count/kreq"},
		{"tier.disk_hits_per_kreq", perK(cs.DiskHits - ca.DiskHits), "count/kreq"},
		{"tier.compactions", float64(cs.Compactions - ca.Compactions), "count"},
		{"tier.demote_drops", float64(w.counter(true, "cache.tier.demote_drops")), "count"},
		{"tier.promotion_ratio", ratio(float64(cs.Promotions-ca.Promotions), float64(demotions)), "ratio"},

		{"upstream.exchange_p50_us", quantile(0.50), "us"},
		{"upstream.exchange_p99_us", quantile(0.99), "us"},
		{"upstream.wire_us", upWireUs, "us/req"},
		{"upstream.writes_per_exchange", ratio(float64(w.counter(true, "wire.upstream.syscalls.writes")), float64(upReqs)), "count"},
		{"upstream.dials", float64(w.counter(true, "wire.upstream.dials")), "count"},
		{"upstream.pool_waits_per_kreq", perK(w.counter(true, "wire.upstream.pool_waits")), "count/kreq"},
		{"upstream.errors", float64(w.counter(true, "wire.upstream.errors")), "count"},

		{"origin.serve_us", sp.origin.meanNs() / 1e3, "us"},
		{"origin.self_us", originSelfUs, "us/req"},
		{"origin.status_304_frac", ratio(float64(o.NotModified-oa.NotModified), float64(originReqs)), "ratio"},
		{"origin.deltas_per_kreq", perK(int64(o.DeltasSent - oa.DeltasSent)), "count/kreq"},
		{"origin.body_bytes_per_req", ratio(float64(w.counter(false, "wire.server.bytes_out")), n), "B/req"},
		{"origin.piggyback_bytes_per_req", ratio(float64(o.PiggybackBytes-oa.PiggybackBytes), n), "B/req"},
		{"origin.piggyback_elems_per_msg", ratio(float64(o.PiggybackElems-oa.PiggybackElems), float64(msgs)), "count"},

		{"volumes.observe_ns", sp.observe.meanNs(), "ns"},
		{"volumes.piggyback_ns", sp.piggyback.meanNs(), "ns"},
		{"volumes.self_us", volumesUs, "us/req"},
		{"volumes.piggyback_empty_ratio", ratio(float64(sp.piggybackEmpty), float64(sp.piggyback.n)), "ratio"},

		{"runtime.alloc_bytes_per_req", ratio(float64(w.b.mem.TotalAlloc-w.a.mem.TotalAlloc), n), "B/req"},
		{"runtime.mallocs_per_req", ratio(float64(w.b.mem.Mallocs-w.a.mem.Mallocs), n), "count/req"},
		{"runtime.gc_per_kreq", perK(int64(w.b.mem.NumGC - w.a.mem.NumGC)), "count/kreq"},
		{"runtime.gc_pause_us_per_kreq", ratio(float64(w.b.mem.PauseTotalNs-w.a.mem.PauseTotalNs)/1e3*1000, n), "us/kreq"},
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// guard is one liveness condition: a workload whose mechanism went quiet
// fails instead of reporting a number that means nothing.
type guard struct {
	what string
	ok   bool
}

// liveness returns the workload's guards over an untraced or traced window.
func liveness(name string, w *window) []guard {
	p, pa := w.b.proxy, w.a.proxy
	cs, ca := w.b.store, w.a.store
	switch name {
	case "coherency":
		return []guard{
			{"validations > 0", p.Validations > pa.Validations},
			{"304s > 0", p.NotModified > pa.NotModified},
			{"piggyback refreshes > 0", p.Refreshes > pa.Refreshes},
			{"piggyback invalidations > 0", p.Invalidations > pa.Invalidations},
			{"delta updates > 0", p.DeltaUpdates > pa.DeltaUpdates},
		}
	case "hot-hits":
		writes := ratio(float64(w.counter(true, "wire.server.syscalls.writes")), float64(w.counter(true, "wire.server.requests")))
		return []guard{
			{"fresh_hit_ratio >= 0.99", ratio(float64(w.t.hits), float64(w.t.completed)) >= 0.99},
			{"origin requests > 0", w.b.origin.Requests > w.a.origin.Requests},
			{"proxy server writes per request within 5% of 1", math.Abs(writes-1) <= 0.05},
		}
	case "churn":
		return []guard{
			{"evictions > 0", cs.Evictions > ca.Evictions},
			{"demotions > 0", cs.Demotions > ca.Demotions},
			{"disk hits > 0", cs.DiskHits > ca.DiskHits},
		}
	}
	return nil
}
