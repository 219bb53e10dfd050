// Command perfbench is the repository's end-to-end benchmark. It builds the
// origin → proxy stack on loopback from the public constructors, replays a
// tracegen trace through it in trace order on a virtual clock against an
// origin whose resources change, checks every response, and prints the
// end-to-end metrics (-trace 0) or the per-layer metrics of a traced run
// (-trace 1). README.md describes the workloads and every metric.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// The command exits non-zero when an output check or a liveness guard
// fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// connections is the closed-loop client population: two per CPU of the
// 2-CPU machine the benchmark was defined on. With one per CPU the CPUs
// sat idle a quarter of the time and every request waited on idle-CPU
// wakeups, whose latency follows the host's load; with two per CPU both
// stay busy.
const connections = 4

// setups is how many times a -trace 0 run sets the workload up and
// measures it; setup_s and the timing metrics are medians over them.
const setups = 3

// gated names the end-to-end metrics the final JSON line carries. The
// others are printed in the table: throughput_rps and latency_p99_us
// follow the host's CPU steal more than the program, stale_frac is 0 by
// construction on a static origin, error_frac is failed/attempted, and
// latency_samples is the count behind the percentiles.
var gated = map[string]bool{
	"latency_p50_us":  true,
	"fresh_hit_ratio": true, "origin_reqs_per_kreq": true, "origin_bytes_per_req": true,
	"cpu_us_per_req": true, "rss_peak_mb": true, "setup_s": true,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: coherency, hot-hits or churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of each measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	commit := flag.String("commit", "unknown", "commit of the sources under test, for the run record")
	workdir := flag.String("workdir", ".bench_build", "directory for the disk tier and the run records")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d): %v\n", *name, *seconds, *trace, err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	d := time.Duration(*seconds) * time.Second

	res, err := measure(w, *seed, d, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	rec := runRecord{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Commit: *commit, SourceSHA256: sourceDigest("."),
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Connections: connections, SetupSamples: res.setupSamples,
		Attempted: res.attempted, Failed: res.failed, FirstError: res.firstErr,
		Guards: map[string]bool{}, Metrics: map[string]float64{}, Units: map[string]string{},
	}
	for _, g := range res.guards {
		rec.Guards[g.what] = g.ok
	}
	correct := res.failed == 0
	for _, g := range res.guards {
		correct = correct && g.ok
	}
	rec.Correct = correct

	out := result{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	fmt.Printf("# workload %s seed %d trace %d: %d attempted, %d failed\n", w.name, *seed, *trace, res.attempted, res.failed)
	for _, m := range res.metrics {
		v := m.value
		fmt.Printf("%-36s %16.4f %s\n", m.name, v, m.unit)
		rec.Metrics[m.name] = v
		rec.Units[m.name] = m.unit
		if *trace == 1 || gated[m.name] {
			out.Metrics[m.name] = value{Value: v, Unit: m.unit}
		}
	}
	for _, g := range res.guards {
		state := "ok"
		if !g.ok {
			state = "FAILED"
		}
		fmt.Printf("# guard %-44s %s\n", g.what, state)
	}
	if res.firstErr != "" {
		fmt.Printf("# first failure: %s\n", res.firstErr)
	}
	line, err := json.Marshal(rec)
	if err == nil {
		fmt.Printf("# run %s\n", line)
		appendLine(filepath.Join(*workdir, "runs.jsonl"), line)
	}
	final, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(final))
	if !correct {
		return 1
	}
	return 0
}

// value and result are the final line's JSON shape.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runRecord is kept for every run, in the output and in runs.jsonl under
// the work directory: the run's metadata and every raw value, so later
// changes can compare spreads rather than medians alone.
type runRecord struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Trace        int                `json:"trace"`
	Commit       string             `json:"commit"`
	SourceSHA256 string             `json:"source_sha256"`
	GoVersion    string             `json:"go_version"`
	NProc        int                `json:"nproc"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	Connections  int                `json:"connections"`
	SetupSamples []float64          `json:"setup_samples_s"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	FirstError   string             `json:"first_error,omitempty"`
	Correct      bool               `json:"correct"`
	Guards       map[string]bool    `json:"guards"`
	Metrics      map[string]float64 `json:"metrics"`
	Units        map[string]string  `json:"units"`
}

func appendLine(path string, line []byte) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record:", err)
		return
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record:", err)
	}
}

// sourceDigest hashes the Go sources and module files under root, so a
// run record names the code it measured even where no commit is known.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// deployment is one set-up workload: the replay driving it, the running
// stack and the client connections.
type deployment struct {
	rp      *replay
	st      *stack
	clients []*client
	warm    tally
}

// setUp generates the workload's trace, loads the origin, starts the
// stack and replays the warm-up: everything setup_s counts.
func setUp(w workload, seed int64, traced bool, conns int, workdir string) (*deployment, error) {
	in := generate(w, seed)
	d := &deployment{rp: newReplay(w, &in)}
	st, err := newStack(w, d.rp.store, d.rp.now, traced, workdir)
	if err != nil {
		return nil, err
	}
	d.st = st
	for i := 0; i < conns; i++ {
		c, err := dialClient(st.proxyAddr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	if w.warmup > 0 {
		d.warm, _ = phase(d.rp, d.clients, int64(w.warmup), 0)
	}
	return d, nil
}

func (d *deployment) close() {
	for _, c := range d.clients {
		c.close()
	}
	d.st.close()
}

// window measures the deployment for dur.
func (d *deployment) window(dur time.Duration) window {
	runtime.GC()
	a := takeSnapshot(d)
	t, elapsed := phase(d.rp, d.clients, 0, dur)
	return window{t: t, elapsed: elapsed, a: a, b: takeSnapshot(d)}
}

// measured is what one run found.
type measured struct {
	metrics      []metric
	guards       []guard
	setupSamples []float64
	attempted    int64
	failed       int64
	firstErr     string
}

func (m *measured) account(t *tally) {
	m.failed += t.failed
	if m.firstErr == "" {
		m.firstErr = t.firstErr
	}
}

// measure runs the workload. Untraced, it sets up setups times and
// measures each deployment for an equal share of dur; the end-to-end
// metrics take the median over the deployments, so one disturbed window
// does not move them. Traced, it measures an untraced and then a traced
// deployment for half of dur each; the per-layer metrics come from the
// traced one, and their throughputs give the tracing overhead. Disk-tier
// directories are removed only when the run ends, so no deletion runs
// beside a measured window.
func measure(w workload, seed int64, dur time.Duration, traced bool, workdir string) (measured, error) {
	var m measured
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return m, err
	}
	defer os.RemoveAll(dir)

	deployments := []bool{false, true}
	if !traced {
		deployments = make([]bool, setups)
	}
	dur /= time.Duration(len(deployments))
	var wins []window
	for _, tr := range deployments {
		start := time.Now()
		d, err := setUp(w, seed, tr, connections, dir)
		if err != nil {
			return m, err
		}
		m.setupSamples = append(m.setupSamples, time.Since(start).Seconds())
		m.account(&d.warm)
		win := d.window(dur)
		d.close()
		win.sliceStats()
		// Collect the closed deployment now, so its memory does not add
		// to the next one's in the peak resident size.
		runtime.GC()
		m.account(&win.t)
		m.attempted += win.t.attempted
		// A guard holds only if it holds in every window.
		for i, g := range liveness(w.name, &win) {
			if i < len(m.guards) {
				m.guards[i].ok = m.guards[i].ok && g.ok
			} else {
				m.guards = append(m.guards, g)
			}
		}
		wins = append(wins, win)
	}
	if traced {
		m.metrics = perLayer(&wins[1], wins[0].rps())
	} else {
		m.metrics = endToEnd(wins, m.setupSamples)
	}
	return m, nil
}
