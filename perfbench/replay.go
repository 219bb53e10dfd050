package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"piggyback/internal/httpwire"
	"piggyback/internal/server"
)

// replay drives a trace through the proxy in trace order on a virtual
// clock. Before a record is issued, every origin modification up to the
// record's time is applied through server.Store.Modify and the clock moves
// to that time, so which requests hit, validate or refetch depends on the
// trace alone, not on how fast the machine runs. The trace is cycled: pass
// k replays it shifted k spans later, and the origin keeps changing.
type replay struct {
	in     *input
	store  *server.Store
	static bool
	delta  int64
	clock  atomic.Int64
	// version is each resource's Last-Modified at the origin now.
	version []atomic.Int64

	mu       sync.Mutex
	next     int64 // index of the next record, counting across passes
	changes  changeQueue
	modifies atomic.Int64
}

// newReplay loads a fresh origin store with every resource at its version
// at the trace's start and schedules the modifications that follow.
func newReplay(w workload, in *input) *replay {
	r := &replay{in: in, store: server.NewStore(), static: w.static, delta: w.delta,
		version: make([]atomic.Int64, len(in.res))}
	for i, res := range in.res {
		lm := res.src.LastModifiedAt(in.start)
		r.store.Put(server.Resource{URL: res.path, Size: res.src.Size, LastModified: lm})
		r.version[i].Store(lm)
	}
	if !w.static {
		r.changes = schedule(in)
	}
	r.next = int64(in.first)
	r.clock.Store(in.start)
	return r
}

// now is the clock the origin and the proxy read.
func (r *replay) now() int64 { return r.clock.Load() }

// issue takes the next record, applies the origin modifications due by
// its time and advances the clock. ok is false once limit records (when
// positive) have been issued.
func (r *replay) issue(limit int64) (res int32, t int64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if limit > 0 && r.next-int64(r.in.first) >= limit {
		return 0, 0, false
	}
	n := int64(len(r.in.recs))
	rec := r.in.recs[r.next%n]
	t = rec.time + (r.next/n)*r.in.span
	r.next++
	for len(r.changes) > 0 && r.changes[0].at <= t {
		c := heap.Pop(&r.changes).(change)
		res := &r.in.res[c.res]
		lm := res.src.LastModifiedAt(c.at)
		r.store.Modify(res.path, lm, 0)
		r.version[c.res].Store(lm)
		r.modifies.Add(1)
		if at, ok := nextChange(res.src, c.at); ok {
			heap.Push(&r.changes, change{at: at, res: c.res})
		}
	}
	if t > r.clock.Load() {
		r.clock.Store(t)
	}
	return rec.res, t, true
}

// versionAt is the resource's origin version at virtual time t.
func (r *replay) versionAt(res int32, t int64) int64 {
	src := r.in.res[res].src
	if r.static || t < r.in.start {
		return src.LastModifiedAt(r.in.start)
	}
	return src.LastModifiedAt(t)
}

// tally is one client connection's account of a phase.
type tally struct {
	attempted int64
	completed int64
	hits      int64 // X-Cache: HIT, no origin round trip on the path
	stale     int64 // Last-Modified older than the origin's version at issue
	failed    int64 // transport errors and failed output checks
	// samples packs each completion as its time since the phase's start
	// in µs (high 32 bits) and its client-observed latency in ns (low 32
	// bits, capped at 4.29 s): 8 bytes a request, so the benchmark's own
	// memory stays small beside the program's.
	samples  []uint64
	genNs    int64  // time spent in issue and in the output checks
	clientNs int64  // total client-observed time
	firstErr string // the first failure, for the report
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.completed += o.completed
	t.hits += o.hits
	t.stale += o.stale
	t.failed += o.failed
	t.samples = append(t.samples, o.samples...)
	t.genNs += o.genNs
	t.clientNs += o.clientNs
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// client is one closed-loop client connection to the proxy: it sends its
// next request as soon as the previous reply has been read and checked.
type client struct {
	addr  string
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	req   *httpwire.Request
	stamp []byte
}

func dialClient(addr string) (*client, error) {
	c := &client{addr: addr, req: httpwire.NewRequest("GET", "/")}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *client) redial() error {
	if c.conn != nil {
		c.conn.Close()
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("dial proxy: %w", err)
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 64<<10)
	c.bw = bufio.NewWriterSize(conn, 4<<10)
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

// run replays records on c until stop is set or limit records have been
// issued, and accounts every exchange in t; t0 is the phase's start. An
// exchange still open at deadline fails, so a hung stack cannot stall the
// run.
func (c *client) run(r *replay, limit int64, stop *atomic.Bool, t0, deadline time.Time, t *tally) {
	if err := c.conn.SetDeadline(deadline); err != nil {
		t.fail("%v", err)
		return
	}
	for !stop.Load() {
		g0 := time.Now()
		res, at, ok := r.issue(limit)
		if !ok {
			return
		}
		c.req.Path = r.in.res[res].target
		t.attempted++
		start := time.Now()
		resp, err := c.exchange()
		end := time.Now()
		if err != nil {
			t.fail("%s: %v", r.in.res[res].path, err)
			if err := c.redial(); err != nil {
				t.fail("%v", err)
				return
			}
			if err := c.conn.SetDeadline(deadline); err != nil {
				t.fail("%v", err)
				return
			}
			continue
		}
		lat := end.Sub(start)
		t.completed++
		t.samples = append(t.samples, uint64(end.Sub(t0).Microseconds())<<32|uint64(min(lat, math.MaxUint32)))
		t.clientNs += int64(lat)
		c.check(r, res, at, resp, t)
		t.genNs += int64(time.Since(g0) - lat)
	}
}

func (c *client) exchange() (*httpwire.Response, error) {
	if err := httpwire.WriteRequest(c.bw, c.req); err != nil {
		return nil, err
	}
	return httpwire.ReadResponse(c.br, false)
}

// check verifies one response: a 200 whose body has the resource's size,
// starts with the version stamp of its Last-Modified, and whose
// Last-Modified is no newer than the origin's version now and no older
// than the origin's version Δ before the request was issued.
func (c *client) check(r *replay, res int32, at int64, resp *httpwire.Response, t *tally) {
	path := r.in.res[res].path
	if resp.Status != 200 {
		t.fail("%s: status %d", path, resp.Status)
		return
	}
	lm, ok := resp.LastModified()
	if !ok {
		t.fail("%s: no Last-Modified", path)
		return
	}
	if want := r.in.res[res].body; int64(len(resp.Body)) != want {
		t.fail("%s: body %d bytes, want %d", path, len(resp.Body), want)
		return
	}
	c.stamp = append(strconv.AppendInt(append(c.stamp[:0], "<!-- version "...), lm, 10), " -->"...)
	stamp := c.stamp
	if len(stamp) > len(resp.Body) {
		stamp = stamp[:len(resp.Body)]
	}
	if !bytes.HasPrefix(resp.Body, stamp) {
		t.fail("%s: body does not carry the stamp of version %d", path, lm)
		return
	}
	if cur := r.version[res].Load(); lm > cur {
		t.fail("%s: Last-Modified %d newer than the origin's %d", path, lm, cur)
		return
	}
	if lm < r.versionAt(res, at-r.delta) {
		t.fail("%s: Last-Modified %d older than the origin's version Δ before %d", path, lm, at)
		return
	}
	if lm < r.versionAt(res, at) {
		t.stale++
	}
	if resp.Header.Get("X-Cache") == "HIT" {
		t.hits++
	}
}

// phaseGrace is how long past a timed phase's end an exchange may still
// run; warmupLimit bounds a warm-up. Both only matter when the stack hangs.
const (
	phaseGrace  = 10 * time.Second
	warmupLimit = 60 * time.Second
)

// phase runs every client until limit records have been issued (limit >
// 0) or for the duration d, and returns the merged tally and the elapsed
// wall time.
func phase(r *replay, clients []*client, limit int64, d time.Duration) (tally, time.Duration) {
	var stop atomic.Bool
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	// A limited phase is a warm-up: a few seconds of replay.
	deadline := start.Add(d + phaseGrace)
	if d == 0 {
		deadline = start.Add(warmupLimit)
	}
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, t *tally) {
			defer wg.Done()
			c.run(r, limit, &stop, start, deadline, t)
		}(c, &tallies[i])
	}
	if d > 0 {
		timer := time.AfterFunc(d, func() { stop.Store(true) })
		defer timer.Stop()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all tally
	for i := range tallies {
		all.add(&tallies[i])
	}
	return all, elapsed
}
