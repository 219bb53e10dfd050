package main

import (
	"container/heap"
	"fmt"
	"math/rand"

	"piggyback/internal/tracegen"
)

// workload is one benchmark input: the site and trace replayed, how the
// origin evolves while it is replayed, and how the proxy is configured.
type workload struct {
	name string
	// site is the tracegen profile: its own fixed seed fixes the site and
	// the trace, so runs with different seeds measure the same site.
	site tracegen.SiteConfig
	// static keeps every resource at its first version: the origin never
	// changes.
	static bool
	// delta is the proxy's freshness interval Δ in seconds.
	delta int64
	// ramBytes is the proxy's RAM cache capacity.
	ramBytes int64
	// diskBytes, when non-zero, layers the tiered disk store under the RAM
	// cache with this capacity.
	diskBytes int64
	// warmup is how many trace records are replayed during set-up, before
	// the measured window.
	warmup int
}

// maxPiggy is the piggyback filter's element cap (maxpiggy).
const maxPiggy = 10

// workloads lists the benchmark's inputs. README.md gives the reason for
// each and the layers it loads.
var workloads = []workload{
	{
		// The aiusa-like site at 4x its profile's request density, so
		// records are about 10 virtual seconds apart, well under Δ.
		name:     "coherency",
		site:     tracegen.ProfileAIUSA(4),
		delta:    900,
		ramBytes: 64 << 20,
		warmup:   20_000,
	},
	{
		// The same site at its profile's density, never modified, with a
		// Δ of ten years, replayed once through during set-up. The RAM
		// cache sits just below the site's body bytes: at 9 MiB 0.3% of
		// requests miss for capacity, a steady trickle of origin fetches
		// that does not depend on how fast the run goes, and keeps every
		// end-to-end metric above zero (at 10 MiB the site fits and the
		// origin sees nothing).
		name:     "hot-hits",
		site:     tracegen.ProfileAIUSA(1),
		static:   true,
		delta:    10 * 365 * 86400,
		ramBytes: 9 << 20,
		warmup:   60_000,
	},
	{
		// The sun-like site (about 29k resources) through a 4 MiB RAM
		// cache over the tiered disk store.
		name:      "churn",
		site:      tracegen.ProfileSun(0.5),
		delta:     900,
		ramBytes:  4 << 20,
		diskBytes: 64 << 20,
		warmup:    20_000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// siteHost names the origin in the absolute-URI requests clients send.
const siteHost = "www.site.test"

// maxBodyBytes mirrors the origin's cap on synthesized bodies.
const maxBodyBytes = 256 << 10

// resource is one origin resource as the replay sees it.
type resource struct {
	src    *tracegen.Resource
	path   string // server-relative URL
	target string // absolute-URI request target
	body   int64  // bytes a 200 carries: the size, capped like the origin
}

// record is one trace request: the resource it names and its trace time.
type record struct {
	res  int32
	time int64
}

// input is a workload's generated trace and resource table.
type input struct {
	res  []resource
	recs []record
	// span is the virtual time one pass of the trace covers; pass k of a
	// cycled replay is shifted by k*span.
	span int64
	// first is the record the replay starts at, chosen by the seed: the
	// replay runs from there to the end of the trace and on into the next
	// pass, so every seed replays the same site in trace order from a
	// different point.
	first int
	// start is the time of the first record replayed: the origin's initial
	// state is every resource's version at start.
	start int64
}

// generate builds the workload's trace and picks its starting record from
// seed. GET records are kept in trace order; the 304-sized records
// tracegen emits for client-side validations become plain GETs, since the
// replayed client has no cache.
func generate(w workload, seed int64) input {
	log, site := tracegen.GenerateServerLog(w.site)
	table := site.ResourceTable()
	in := input{res: make([]resource, len(table))}
	index := make(map[string]int32, len(table))
	for i, r := range table {
		body := r.Size
		if body > maxBodyBytes {
			body = maxBodyBytes
		}
		in.res[i] = resource{src: r, path: r.URL, target: "http://" + siteHost + r.URL, body: body}
		index[r.URL] = int32(i)
	}
	in.recs = make([]record, 0, len(log))
	for _, rec := range log {
		i, ok := index[rec.URL]
		if !ok || rec.Method != "GET" {
			continue
		}
		in.recs = append(in.recs, record{res: i, time: rec.Time})
	}
	in.first = rand.New(rand.NewSource(seed)).Intn(len(in.recs))
	in.start = in.recs[in.first].time
	in.span = site.Config.Duration
	return in
}

// changeHorizon bounds the search for a resource's next modification: a
// resource unchanged for this long is treated as never changing again.
const changeHorizon = 10 * 365 * 86400

// nextChange returns the first time after t at which r's Last-Modified
// moves, found by bisecting tracegen's step function.
func nextChange(r *tracegen.Resource, t int64) (int64, bool) {
	v := r.LastModifiedAt(t)
	lo, hi := t, t+changeHorizon
	if r.LastModifiedAt(hi) == v {
		return 0, false
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if r.LastModifiedAt(mid) > v {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// change is one pending origin modification.
type change struct {
	at  int64
	res int32
}

// changeQueue is a min-heap of pending modifications by time, then by
// resource, so equal-time changes apply in a fixed order.
type changeQueue []change

func (q changeQueue) Len() int { return len(q) }
func (q changeQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].res < q[j].res
}
func (q changeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *changeQueue) Push(x any)   { *q = append(*q, x.(change)) }
func (q *changeQueue) Pop() any {
	old := *q
	c := old[len(old)-1]
	*q = old[:len(old)-1]
	return c
}

// schedule returns the first pending modification of every resource that
// changes after the trace starts.
func schedule(in *input) changeQueue {
	var q changeQueue
	for i := range in.res {
		if at, ok := nextChange(in.res[i].src, in.start); ok {
			q = append(q, change{at: at, res: int32(i)})
		}
	}
	heap.Init(&q)
	return q
}
