package main

import (
	"encoding/json"
	"os"
	"testing"

	"piggyback/internal/proxy"
	"piggyback/internal/server"
	"piggyback/internal/tracegen"
)

// replayCounters replays records of the 1x-density coherency trace on
// conns connections and returns the protocol counters and the fresh-hit
// ratio.
func replayCounters(t *testing.T, conns int, records int) (proxy.Stats, server.Stats, float64) {
	t.Helper()
	w, err := findWorkload("coherency")
	if err != nil {
		t.Fatal(err)
	}
	w.site = tracegen.ProfileAIUSA(1)
	w.warmup = records
	d, err := setUp(w, 1, false, conns, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if d.warm.failed != 0 || d.warm.completed != int64(records) {
		t.Fatalf("%d of %d requests completed, %d failed; first: %s",
			d.warm.completed, records, d.warm.failed, d.warm.firstErr)
	}
	return d.st.proxy.Stats(), d.st.origin.Stats(), float64(d.warm.hits) / float64(d.warm.completed)
}

// On one connection the virtual clock makes the replay a function of the
// trace alone: two runs take identical protocol decisions.
func TestOneConnectionReplayIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 60k requests three times")
	}
	const records = 60_000
	p1, o1, hit1 := replayCounters(t, 1, records)
	p2, o2, _ := replayCounters(t, 1, records)
	if p1 != p2 {
		t.Errorf("proxy counters differ between runs:\n%+v\n%+v", p1, p2)
	}
	if o1 != o2 {
		t.Errorf("origin counters differ between runs:\n%+v\n%+v", o1, o2)
	}
	if p1.Validations == 0 || p1.Refreshes == 0 || p1.Invalidations == 0 || p1.DeltaUpdates == 0 {
		t.Errorf("coherency mechanisms quiet: %+v", p1)
	}
	t.Logf("1 connection: %.1f origin requests per 1,000, fresh-hit ratio %.4f",
		1000*float64(o1.Requests)/records, hit1)

	// Two connections interleave their records, so the clock a request
	// sees depends on timing. Logged, not gated.
	_, o3, hit3 := replayCounters(t, 2, records)
	t.Logf("2 connections: %.1f origin requests per 1,000, fresh-hit ratio %.4f",
		1000*float64(o3.Requests)/records, hit3)
}

func TestNextChangeFindsEveryStep(t *testing.T) {
	in := generate(workload{site: tracegen.ProfileAIUSA(0.05)}, 1)
	for _, r := range in.res[:50] {
		at, ok := in.start, true
		for i := 0; i < 5; i++ {
			prev := at
			if at, ok = nextChange(r.src, at); !ok {
				break
			}
			if r.src.LastModifiedAt(at) <= r.src.LastModifiedAt(at-1) || r.src.LastModifiedAt(at-1) != r.src.LastModifiedAt(prev) {
				t.Fatalf("%s: change at %d is not the first step after %d", r.path, at, prev)
			}
		}
	}
}

// BENCHMARK.json names the workloads and the metrics this command prints.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	var win window
	e2e := map[string]bool{}
	for _, m := range endToEnd([]window{win}, nil) {
		e2e[m.name] = true
	}
	for _, m := range spec.EndToEnd {
		if !e2e[m.Name] || !gated[m.Name] {
			t.Errorf("end-to-end metric %s is not printed on the result line", m.Name)
		}
	}
	if len(spec.EndToEnd) != len(gated) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the result line carries %d", len(spec.EndToEnd), len(gated))
	}
	layer := map[string]bool{}
	for _, m := range perLayer(&win, 0) {
		layer[m.name] = true
	}
	if len(spec.PerLayer) != len(layer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(spec.PerLayer), len(layer))
	}
	for _, m := range spec.PerLayer {
		if !layer[m.Name] {
			t.Errorf("per-layer metric %s is not printed", m.Name)
		}
	}
}
