package server

import (
	"bytes"
	"context"
	"testing"

	"piggyback/internal/core"
	"piggyback/internal/httpwire"
)

func testServer(clockAt int64) (*Server, *Store) {
	st := NewStore()
	st.Put(Resource{URL: "/a/x.html", Size: 100, LastModified: 1000})
	st.Put(Resource{URL: "/a/y.gif", Size: 50, LastModified: 1500})
	st.Put(Resource{URL: "/b/z.html", Size: 70, LastModified: 900})
	vols := core.NewDirVolumes(core.DirConfig{Level: 1, MTF: true})
	now := clockAt
	return New(st, vols, func() int64 { return now }), st
}

func get(path string) *httpwire.Request { return httpwire.NewRequest("GET", path) }

func TestServeBasicGet(t *testing.T) {
	s, _ := testServer(2000)
	resp := s.ServeWire(context.Background(), get("/a/x.html"))
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if int64(len(resp.Body)) != 100 {
		t.Errorf("body length = %d, want 100", len(resp.Body))
	}
	if lm, ok := resp.LastModified(); !ok || lm != 1000 {
		t.Errorf("Last-Modified = %d, %v", lm, ok)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html" {
		t.Errorf("Content-Type = %q", ct)
	}
}

func TestServe404And501(t *testing.T) {
	s, _ := testServer(2000)
	if resp := s.ServeWire(context.Background(), get("/missing")); resp.Status != 404 {
		t.Errorf("status = %d, want 404", resp.Status)
	}
	req := httpwire.NewRequest("DELETE", "/a/x.html")
	if resp := s.ServeWire(context.Background(), req); resp.Status != 501 {
		t.Errorf("status = %d, want 501", resp.Status)
	}
	st := s.Stats()
	if st.NotFound != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIfModifiedSinceValidation(t *testing.T) {
	s, _ := testServer(2000)
	req := get("/a/x.html")
	req.Header.Set("If-Modified-Since", httpwire.FormatHTTPDate(1000))
	resp := s.ServeWire(context.Background(), req)
	if resp.Status != 304 {
		t.Fatalf("status = %d, want 304 (IMS == LM)", resp.Status)
	}
	if len(resp.Body) != 0 {
		t.Error("304 carried a body")
	}
	// Older copy: full response.
	req2 := get("/a/x.html")
	req2.Header.Set("If-Modified-Since", httpwire.FormatHTTPDate(500))
	if resp := s.ServeWire(context.Background(), req2); resp.Status != 200 {
		t.Errorf("status = %d, want 200 (stale copy)", resp.Status)
	}
	if s.Stats().NotModified != 1 {
		t.Errorf("NotModified = %d", s.Stats().NotModified)
	}
}

func TestPiggybackOnlyForCooperatingProxies(t *testing.T) {
	s, _ := testServer(2000)
	// Warm the volume.
	s.ServeWire(context.Background(), get("/a/y.gif"))

	// Plain request: no piggyback even though the volume has content.
	resp := s.ServeWire(context.Background(), get("/a/x.html"))
	if _, ok := httpwire.ExtractPiggyback(resp); ok {
		t.Error("piggyback sent without a filter")
	}

	// Filter but no TE: chunked: still no piggyback.
	req := get("/a/x.html")
	req.Header.Set(httpwire.FieldPiggyFilter, "maxpiggy=5")
	resp = s.ServeWire(context.Background(), req)
	if _, ok := httpwire.ExtractPiggyback(resp); ok {
		t.Error("piggyback sent without TE: chunked")
	}

	// Proper piggybacking request.
	req2 := get("/a/x.html")
	httpwire.SetFilter(req2, core.Filter{MaxPiggy: 5})
	resp = s.ServeWire(context.Background(), req2)
	m, ok := httpwire.ExtractPiggyback(resp)
	if !ok {
		t.Fatal("no piggyback for cooperating proxy")
	}
	found := false
	for _, e := range m.Elements {
		if e.URL == "/a/y.gif" && e.Size == 50 && e.LastModified == 1500 {
			found = true
		}
		if e.URL == "/a/x.html" {
			t.Error("piggyback includes the requested resource")
		}
		if e.URL == "/b/z.html" {
			t.Error("piggyback crossed volumes")
		}
	}
	if !found {
		t.Errorf("expected /a/y.gif in piggyback: %+v", m.Elements)
	}
	if st := s.Stats(); st.PiggybacksSent != 1 || st.PiggybackElems == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPiggybackOn304(t *testing.T) {
	s, _ := testServer(2000)
	s.ServeWire(context.Background(), get("/a/y.gif"))
	req := get("/a/x.html")
	req.Header.Set("If-Modified-Since", httpwire.FormatHTTPDate(1000))
	httpwire.SetFilter(req, core.Filter{MaxPiggy: 5})
	resp := s.ServeWire(context.Background(), req)
	if resp.Status != 304 {
		t.Fatalf("status = %d", resp.Status)
	}
	if _, ok := httpwire.ExtractPiggyback(resp); !ok {
		t.Error("304 should still carry the piggyback trailer")
	}
}

func TestModifyInvalidatesValidation(t *testing.T) {
	s, store := testServer(2000)
	store.Modify("/a/x.html", 1800, 0)
	req := get("/a/x.html")
	req.Header.Set("If-Modified-Since", httpwire.FormatHTTPDate(1000))
	resp := s.ServeWire(context.Background(), req)
	if resp.Status != 200 {
		t.Fatalf("status = %d, want 200 after modification", resp.Status)
	}
	if lm, _ := resp.LastModified(); lm != 1800 {
		t.Errorf("Last-Modified = %d", lm)
	}
}

func TestStoreOperations(t *testing.T) {
	st := NewStore()
	st.Put(Resource{URL: "/x", Size: 10, LastModified: 5})
	if st.Len() != 1 {
		t.Fatal("Len")
	}
	r, ok := st.Get("/x")
	if !ok || r.ContentType == "" {
		t.Fatalf("Get = %+v, %v (content type should default)", r, ok)
	}
	if !st.Modify("/x", 9, 20) {
		t.Fatal("Modify")
	}
	r, _ = st.Get("/x")
	if r.LastModified != 9 || r.Size != 20 {
		t.Errorf("after Modify: %+v", r)
	}
	if st.Modify("/zz", 1, 1) {
		t.Error("Modify missing resource")
	}
	if !st.Remove("/x") || st.Remove("/x") {
		t.Error("Remove semantics")
	}
}

// TestStoreGetConcurrentWithModify runs Get against Modify on one resource.
// Under -race it fails if Get copies the resource outside the read lock;
// without -race it still checks that every copy is self-consistent.
func TestStoreGetConcurrentWithModify(t *testing.T) {
	st := NewStore()
	st.Put(Resource{URL: "/x", Size: 10, LastModified: 1000})
	const rounds = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); i <= rounds; i++ {
			st.Modify("/x", 1000+i, 10+i)
		}
	}()
	for i := 0; i < rounds; i++ {
		r, ok := st.Get("/x")
		if !ok {
			t.Fatal("Get lost the resource")
		}
		if r.lmDate != httpwire.FormatHTTPDate(r.LastModified) {
			t.Fatalf("torn copy: Last-Modified %d rendered as %q", r.LastModified, r.lmDate)
		}
	}
	<-done
}

func TestBodySynthesisDeterministicAndSized(t *testing.T) {
	r := &Resource{URL: "/a/x.html", Size: 1000}
	b1, b2 := r.body(7), r.body(7)
	if !bytes.Equal(b1, b2) {
		t.Error("body not deterministic")
	}
	if int64(len(b1)) != 1000 {
		t.Errorf("body length = %d", len(b1))
	}
	big := &Resource{URL: "/big", Size: 10 << 20}
	if len(big.body(7)) != maxBodyBytes {
		t.Errorf("big body = %d, want capped at %d", len(big.body(7)), maxBodyBytes)
	}
	empty := &Resource{URL: "/e", Size: 0}
	if len(empty.body(7)) != 0 {
		t.Error("zero-size body")
	}
}

func TestBodyVersionsDifferSparsely(t *testing.T) {
	r := &Resource{URL: "/a/x.html", Size: 8192}
	v1, v2 := r.body(1000), r.body(2000)
	if bytes.Equal(v1, v2) {
		t.Fatal("versions identical")
	}
	// Versions differ in at most a few 512-byte blocks.
	diff := 0
	for i := 0; i < len(v1); i += 512 {
		hi := i + 512
		if hi > len(v1) {
			hi = len(v1)
		}
		if !bytes.Equal(v1[i:hi], v2[i:hi]) {
			diff++
		}
	}
	if diff == 0 || diff > 3 {
		t.Errorf("versions differ in %d blocks, want 1-3", diff)
	}
}

func TestServerWithoutVolumes(t *testing.T) {
	st := NewStore()
	st.Put(Resource{URL: "/x", Size: 5, LastModified: 1})
	s := New(st, nil, func() int64 { return 10 })
	req := get("/x")
	httpwire.SetFilter(req, core.Filter{MaxPiggy: 5})
	resp := s.ServeWire(context.Background(), req)
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if _, ok := httpwire.ExtractPiggyback(resp); ok {
		t.Error("volume-less server sent a piggyback")
	}
}
