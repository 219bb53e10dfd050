package httpwire

import (
	"bufio"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"piggyback/internal/httpwire/wireerr"
	"piggyback/internal/obs"
)

// Regression: readHeader used h.Set, so the last repeated field silently
// overwrote the earlier ones. RFC 7230 §3.2.2 semantics join them with
// ", " in arrival order.
func TestReadHeaderJoinsDuplicateFields(t *testing.T) {
	raw := "GET /x HTTP/1.1\r\n" +
		"Cache-Control: no-cache\r\n" +
		"Piggy-Hits: /a/1.html\r\n" +
		"cache-control: max-age=0\r\n" +
		"Piggy-Hits: /a/2.html\r\n" +
		"Piggy-Hits: /a/3.html\r\n" +
		"\r\n"
	req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := req.Header.Get("Cache-Control"), "no-cache, max-age=0"; got != want {
		t.Errorf("Cache-Control = %q, want %q", got, want)
	}
	if got, want := req.Header.Get("Piggy-Hits"), "/a/1.html, /a/2.html, /a/3.html"; got != want {
		t.Errorf("Piggy-Hits = %q, want %q", got, want)
	}
}

func TestHeaderAdd(t *testing.T) {
	h := make(Header)
	h.Add("x-one", "a")
	if got := h.Get("X-One"); got != "a" {
		t.Fatalf("first Add: %q", got)
	}
	h.Add("X-ONE", "b")
	if got := h.Get("X-One"); got != "a, b" {
		t.Fatalf("second Add: %q", got)
	}
}

// Regression: readLine trimmed with TrimRight("\r\n"), eating every
// trailing CR — a legitimate "\r" at the end of a field value was
// silently corrupted. Exactly one terminator must be stripped.
func TestReadLineTerminatorHandling(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"plain\r\n", "plain"},
		{"bare-lf\n", "bare-lf"},
		{"keeps-cr\r\r\n", "keeps-cr\r"},
		{"keeps-many\r\r\r\n", "keeps-many\r\r"},
		{"cr-before-bare-lf\r\n", "cr-before-bare-lf"},
		{"\r\n", ""},
		{"\n", ""},
		{"\r\r\n", "\r"},
		{"interior\rcr\r\n", "interior\rcr"},
		// A line longer than the bufio buffer exercises the multi-
		// fragment slow path.
		{strings.Repeat("x", 9000) + "\r\r\n", strings.Repeat("x", 9000) + "\r"},
	}
	for _, tc := range cases {
		got, err := readLine(bufio.NewReader(strings.NewReader(tc.in)))
		if err != nil {
			t.Errorf("readLine(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("readLine(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestReadLineEOFWithoutTerminator(t *testing.T) {
	if _, err := readLine(bufio.NewReader(strings.NewReader("trunc"))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("partial line: err = %v, want ErrUnexpectedEOF", err)
	}
	if _, err := readLine(bufio.NewReader(strings.NewReader(""))); !errors.Is(err, io.EOF) {
		t.Errorf("empty input: err = %v, want EOF", err)
	}
}

// Regression: the retry pause between attempts was a bare time.Sleep, so a
// canceled caller still waited out the backoff. sleepBackoff must return
// as soon as the context ends, classified as a wireerr.
func TestSleepBackoffCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := sleepBackoff(ctx, 10*time.Second)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sleepBackoff ignored cancellation (took %v)", elapsed)
	}
	if !errors.Is(err, wireerr.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestSleepBackoffCompletes(t *testing.T) {
	if err := sleepBackoff(context.Background(), time.Millisecond); err != nil {
		t.Errorf("uncanceled sleepBackoff: %v", err)
	}
}

func TestSleepBackoffDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := sleepBackoff(ctx, 10*time.Second)
	if !errors.Is(err, wireerr.ErrRequestTimeout) && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want a deadline classification", err)
	}
}

func TestPprofEndpointGated(t *testing.T) {
	defer EnablePprof(false)
	req := NewRequest("GET", PprofPathPrefix+"heap")
	EnablePprof(false)
	if resp := AdminResponse(req, nil); resp == nil || resp.Status != 404 {
		t.Fatalf("disabled: %+v, want 404", resp)
	}
	EnablePprof(true)
	resp := AdminResponse(req, nil)
	if resp == nil || resp.Status != 200 || len(resp.Body) == 0 {
		t.Fatalf("enabled heap: %+v, want 200 with a profile", resp)
	}
	if resp := AdminResponse(NewRequest("GET", PprofPathPrefix+"nosuch"), nil); resp == nil || resp.Status != 404 {
		t.Fatalf("unknown profile: %+v, want 404", resp)
	}
	if AdminResponse(NewRequest("GET", "/a/x.html"), nil) != nil {
		t.Fatal("ordinary path answered as an admin request")
	}
}

func TestAdminStatsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("test.requests").Add(3)
	resp := AdminResponse(NewRequest("GET", obs.StatsPath), reg)
	if resp == nil || resp.Status != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("stats: %+v, want a 200 JSON response", resp)
	}
	if !strings.Contains(string(resp.Body), `"test.requests"`) {
		t.Errorf("stats body lacks the registered counter: %s", resp.Body)
	}
	if AdminResponse(NewRequest("POST", obs.StatsPath), reg) != nil {
		t.Error("POST to the stats path answered as an admin request")
	}
}
