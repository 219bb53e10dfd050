package httpwire

import (
	"bufio"
	"io"
	"sync"

	"piggyback/internal/obs"
)

// Pools for the wire layer's recurring scratch allocations. A proxy under
// load opens and drops connections constantly; without reuse every accepted
// or dialed connection allocates a fresh 4 KiB bufio.Reader, and every
// serialized message allocates a sorted-key slice — churn that
// dominated the heap profile at 64 concurrent workers. Bodies are NOT
// pooled: they outlive the exchange (cached, returned to callers), so only
// ownership-bounded scratch lives here.

// bufioSize matches bufio's default; one pool class keeps Put/Get
// type-stable.
const bufioSize = 4096

var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, bufioSize) }}

	// keyScratchPool holds the sorted-key slices writeHeader uses; the
	// indirection through a pointer avoids allocating a slice header on
	// every Put.
	keyScratchPool = sync.Pool{New: func() any {
		s := make([]string, 0, 16)
		return &s
	}}
)

// GetReader returns a pooled bufio.Reader reset to read from r.
func GetReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// PutReader returns a reader to the pool. The caller must be done with it;
// any buffered-but-unread bytes are discarded.
func PutReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

// countingReader wraps a connection to count read syscalls: a bufio
// reader issues exactly one Read per buffer fill, so the counter tracks
// prefix.syscalls.reads one-to-one with socket reads.
type countingReader struct {
	r   io.Reader
	ops *obs.Counter
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.ops.Inc()
	return c.r.Read(p)
}

func getKeyScratch() *[]string {
	return keyScratchPool.Get().(*[]string)
}

func putKeyScratch(s *[]string) {
	*s = (*s)[:0]
	keyScratchPool.Put(s)
}
