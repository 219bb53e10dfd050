package httpwire

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
)

// Allocation-budget benchmarks for the wire hot paths. The ceilings pinned
// by the companion TestAllocBudgets are the regression gate: the workers=64
// throughput cliff was allocation churn in exactly these functions, so a
// change that re-introduces per-header-line formatting or per-exchange
// buffer allocation fails the budget instead of silently shifting the
// cliff back.

// benchResponse builds a representative proxy hit response: status line,
// four header fields, a 2 KiB body.
func benchResponse() *Response {
	resp := NewResponse(200)
	resp.Body = bytes.Repeat([]byte("x"), 2048)
	resp.Header.Set("Content-Type", "text/html")
	resp.Header.Set("Last-Modified", "Fri, 05 Jul 1998 12:02:33 GMT")
	resp.Header.Set("X-Cache", "HIT")
	return resp
}

// benchTrailerResponse adds a piggyback trailer, forcing chunked framing.
func benchTrailerResponse() *Response {
	resp := benchResponse()
	resp.Trailer = Header{}
	resp.Trailer.Set("P-Volume", "17; /a/b.html 866268400 4096, /a/c.gif 866268401 512")
	return resp
}

// benchRequest builds a representative proxy-bound request: method line and
// four header fields, no body.
func benchRequest() *Request {
	req := NewRequest("GET", "http://www.bench.test/a/r01.html")
	req.Header.Set("Host", "www.bench.test")
	req.Header.Set("TE", "chunked")
	req.Header.Set("Piggy-Filter", "maxpiggy=10")
	return req
}

func BenchmarkWriteResponse(b *testing.B) {
	run := func(b *testing.B, resp *Response) {
		bw := bufio.NewWriter(io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := WriteResponse(bw, resp, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) { run(b, benchResponse()) })
	b.Run("trailer", func(b *testing.B) { run(b, benchTrailerResponse()) })
}

func BenchmarkWriteRequest(b *testing.B) {
	req := benchRequest()
	bw := bufio.NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteRequest(bw, req); err != nil {
			b.Fatal(err)
		}
	}
}

// replayReader replays one serialized message forever without allocating.
type replayReader struct {
	msg []byte
	off int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.off == len(r.msg) {
		r.off = 0
	}
	n := copy(p, r.msg[r.off:])
	r.off += n
	return n, nil
}

func serializeRequest(b *testing.B, req *Request) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := WriteRequest(bufio.NewWriter(&buf), req); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func serializeResponse(b *testing.B, resp *Response) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := WriteResponse(bufio.NewWriter(&buf), resp, false); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkReadRequest(b *testing.B) {
	wire := serializeRequest(b, benchRequest())
	br := bufio.NewReader(&replayReader{msg: wire})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadRequest(br); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadResponse(b *testing.B) {
	run := func(b *testing.B, wire []byte) {
		br := bufio.NewReader(&replayReader{msg: wire})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ReadResponse(br, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) { run(b, serializeResponse(b, benchResponse())) })
	b.Run("trailer", func(b *testing.B) { run(b, serializeResponse(b, benchTrailerResponse())) })
}

// TestAllocBudgets pins allocs/op ceilings on the wire hot paths with
// testing.AllocsPerRun. The budgets have headroom over the measured values
// (so GC noise doesn't flake) but sit far below the pre-pooling numbers —
// e.g. WriteResponse/plain measured ~30 allocs/op before the fmt removal
// and key-scratch pooling, ~1 after.
func TestAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need steady-state runs")
	}
	if raceEnabled {
		// The race detector drops sync.Pool items at random, so a
		// pool-backed budget would measure the detector, not the code.
		t.Skip("allocation budgets are gated in non-race runs")
	}
	bw := bufio.NewWriter(io.Discard)
	// Pre-built messages: serialization does not mutate them, so the runs
	// measure the write path alone with no construction cost to subtract.
	plain := benchResponse()
	trailer := benchTrailerResponse()
	req := benchRequest()
	cases := []struct {
		name   string
		budget float64
		fn     func()
	}{
		{"WriteResponse/plain", 3, func() {
			if err := WriteResponse(bw, plain, false); err != nil {
				t.Fatal(err)
			}
		}},
		// The chunked/trailer path shares the pooled segment vector with
		// the plain path; it must not re-introduce per-chunk formatting
		// allocs. Measured 0/op: chunk-size hex, tail framing, and trailer
		// fields all land in the pooled head scratch.
		{"WriteResponse/trailer", 1, func() {
			if err := WriteResponse(bw, trailer, false); err != nil {
				t.Fatal(err)
			}
		}},
		{"WriteRequest", 3, func() {
			if err := WriteRequest(bw, req); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// One warmup run primes the scratch pools.
			tc.fn()
			got := testing.AllocsPerRun(200, tc.fn)
			if got > tc.budget {
				t.Errorf("%s: %.1f allocs/op, budget %.1f", tc.name, got, tc.budget)
			}
		})
	}
}

// TestWriteVecTCPAllocBudget pins the vectored fast path over a real
// socket: one response per writev must cost at most the unavoidable
// net.Buffers header escape — no per-segment or per-header allocation.
func TestWriteVecTCPAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets need steady-state runs")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	resp := benchResponse()
	run := func() {
		v := getVec()
		v.appendResponse(resp, false)
		if err := writeVec(conn, v); err != nil {
			t.Fatal(err)
		}
		putVec(v)
	}
	run()
	const budget = 2
	if got := testing.AllocsPerRun(200, run); got > budget {
		t.Errorf("writeVec over TCP: %.1f allocs/op, budget %d", got, budget)
	}
}
