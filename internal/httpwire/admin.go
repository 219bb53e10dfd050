package httpwire

import (
	"bytes"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"piggyback/internal/obs"
)

// AdminResponse answers the reserved /.piggy/ endpoints, which the server,
// proxy, and volume center each check before any routing, and returns nil
// for every other request. A GET for obs.StatsPath returns a live JSON
// snapshot of reg, so the load generator (or an operator with netcat) can
// watch counters move under live traffic; a GET under PprofPathPrefix
// returns a runtime profile. The paths have no Host, so a proxy answers
// for itself rather than forwarding.
func AdminResponse(req *Request, reg *obs.Registry) *Response {
	if req.Method != "GET" {
		return nil
	}
	switch {
	case req.Path == obs.StatsPath:
		resp := NewResponse(200)
		resp.Body = reg.Snapshot().JSON()
		resp.Header.Set("Content-Type", "application/json")
		resp.Header.Set("Cache-Control", "no-store")
		return resp
	case strings.HasPrefix(req.Path, PprofPathPrefix):
		return pprofResponse(req.Path)
	}
	return nil
}

// PprofPathPrefix is the reserved origin-form path prefix under which live
// runtime profiles are served: /.piggy/pprof/<name> answers with the named
// runtime/pprof profile (heap, allocs, goroutine, block, mutex, ...), and
// /.piggy/pprof/profile?seconds=N with an N-second CPU profile.
//
// The endpoint is off by default — profiles expose internals, so a process
// opts in with EnablePprof (the -pprof flag on the daemons).
const PprofPathPrefix = "/.piggy/pprof/"

var pprofEnabled atomic.Bool

// EnablePprof turns the /.piggy/pprof/ endpoint on or off process-wide.
func EnablePprof(on bool) { pprofEnabled.Store(on) }

// maxCPUProfileSeconds bounds how long one request may keep the (global,
// single-consumer) CPU profiler running.
const maxCPUProfileSeconds = 60

// pprofResponse serves a profiling request. When profiling is not enabled
// it answers 404 without revealing the endpoint exists.
func pprofResponse(path string) *Response {
	if !pprofEnabled.Load() {
		return NewResponse(404)
	}
	name, query, _ := strings.Cut(strings.TrimPrefix(path, PprofPathPrefix), "?")
	if name == "profile" {
		return cpuProfileResponse(query)
	}
	p := pprof.Lookup(name)
	if p == nil {
		return NewResponse(404)
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 0); err != nil {
		return NewResponse(500)
	}
	return profileBytes(buf.Bytes())
}

// cpuProfileResponse runs the CPU profiler for seconds= (default 5) and
// returns the pprof-format profile. The sleep here is intentional — the
// profile *is* the wait — and the endpoint is an opt-in debugging tool,
// not the serving path.
func cpuProfileResponse(query string) *Response {
	secs := 5
	for _, kv := range strings.Split(query, "&") {
		if v, ok := strings.CutPrefix(kv, "seconds="); ok {
			if n, err := strconv.Atoi(v); err == nil && n > 0 && n <= maxCPUProfileSeconds {
				secs = n
			}
		}
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Another CPU profile is already running (flag collision or a
		// concurrent request): the profiler is a singleton.
		resp := NewResponse(503)
		resp.Body = []byte(err.Error())
		return resp
	}
	time.Sleep(time.Duration(secs) * time.Second)
	pprof.StopCPUProfile()
	return profileBytes(buf.Bytes())
}

func profileBytes(b []byte) *Response {
	resp := NewResponse(200)
	resp.Body = b
	resp.Header.Set("Content-Type", "application/octet-stream")
	resp.Header.Set("Cache-Control", "no-store")
	return resp
}
