// Command waldobench is the Waldo benchmark: one command that builds a
// workload's inputs from a seed, runs it against the real stack, checks
// the outputs, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage (from the repository root, via run.sh which builds it):
//
//	bash waldobench/run.sh --workload ingest|fleet|wsd_scan --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the gated end-to-end metrics of
// BENCHMARK.json. With --trace 1 the run measures the workload untraced
// in a child process, then again here with outside wrappers on every
// layer, prints the per-layer table and the tracing overhead, writes the
// span dump, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// nproc is the machine's core count: GOMAXPROCS, and the most requests
// or connections the generator ever has in flight.
func nproc() int { return runtime.NumCPU() }

// workloads maps each workload name to its runner.
var workloads = map[string]func(Options, *Tracer) (*Result, error){
	"ingest":   runIngest,
	"fleet":    runFleet,
	"wsd_scan": runWSDScan,
}

// Gated lists the end-to-end metrics BENCHMARK.json gates, in order.
// Each workload maps the four latency slots to its own operations
// (Result.Gated).
var Gated = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"main_p50_ms", "ms"},
	{"main_p90_ms", "ms"},
	{"aux_p50_ms", "ms"},
	{"aux_p90_ms", "ms"},
}

type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var o Options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload: ingest, fleet or wsd_scan")
	flag.Int64Var(&o.Seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.Seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass")
	flag.StringVar(&o.Dir, "dir", ".bench_build", "directory for WAL data and span dumps")
	flag.Parse()
	fn, ok := workloads[o.Workload]
	if !ok || o.Seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "waldobench: bad arguments (workload %q, seconds %d, trace %d)\n", o.Workload, o.Seconds, trace)
		return 2
	}
	runtime.GOMAXPROCS(nproc())
	fmt.Printf("# waldobench workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		o.Workload, o.Seed, o.Seconds, trace, runtime.GOMAXPROCS(0))

	if trace == 1 {
		return runTraced(o, fn)
	}
	res, err := fn(o, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "waldobench: %s: %v\n", o.Workload, err)
		return 1
	}
	report(res)
	out := output{Correct: passed(res), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]jsonMetric{}}
	for _, g := range Gated {
		name := g.Name
		if alias, ok := res.Gated[name]; ok {
			name = alias
		}
		m, ok := res.metric(name)
		if !ok || !m.OK {
			fmt.Fprintf(os.Stderr, "waldobench: %s has no value for %s (%s)\n", o.Workload, g.Name, name)
			out.Correct = false
		}
		out.Metrics[g.Name] = jsonMetric{Value: m.Value, Unit: g.Unit}
	}
	return finish(out)
}

// runTraced runs the untraced pass in a child process, so that it and the
// traced pass here each start from a fresh process, then reports the
// per-layer metrics and the tracing overhead.
func runTraced(o Options, fn func(Options, *Tracer) (*Result, error)) int {
	untraced, childOK, err := runUntracedChild(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "waldobench: untraced pass: %v\n", err)
		return 1
	}
	tr := NewTracer()
	traced, err := fn(o, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "waldobench: traced %s: %v\n", o.Workload, err)
		return 1
	}
	spans := Analyze(tr.Spans())
	spanLayers(spans, traced)
	fmt.Println("# traced pass")
	report(traced)
	selfTable(os.Stdout, spans)
	layerTable(os.Stdout, o.Workload, traced.Layers)
	overhead(untraced, traced)
	dump := filepath.Join(o.Dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.Workload, o.Seed))
	if err := Dump(dump, spans); err != nil {
		fmt.Fprintf(os.Stderr, "waldobench: span dump: %v\n", err)
		return 1
	}
	fmt.Printf("# %d spans written to %s\n", len(spans), dump)
	out := output{Correct: childOK && passed(traced), Attempted: traced.Attempted, Failed: traced.Failed, Metrics: map[string]jsonMetric{}}
	for _, l := range Layers {
		out.Metrics[l.Name] = jsonMetric{Value: traced.Layers[l.Name], Unit: l.Unit}
	}
	return finish(out)
}

// runUntracedChild runs this program with --trace 0 on the same inputs,
// relays its report, and returns the metrics it printed and whether it
// passed.
func runUntracedChild(o Options) (map[string]float64, bool, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	cmd := exec.Command(self, "--workload", o.Workload, "--seed", strconv.FormatInt(o.Seed, 10),
		"--seconds", strconv.Itoa(o.Seconds), "--trace", "0", "--dir", o.Dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, false, err
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(stdout)), "\n") {
		if strings.HasPrefix(line, "{") {
			continue // the child's result line; this run prints its own
		}
		fmt.Println("# untraced:", line)
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "metric" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				vals[f[1]] = v
			}
		}
	}
	return vals, err == nil, nil
}

// finish prints the result line and returns the exit code.
func finish(out output) int {
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "waldobench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func passed(res *Result) bool {
	for _, c := range res.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// report prints a pass's metrics, checks and notes.
func report(res *Result) {
	for _, m := range res.Metrics {
		fmt.Println("metric", m)
	}
	var gated []string
	for k, v := range res.Gated {
		gated = append(gated, k+"="+v)
	}
	sort.Strings(gated)
	fmt.Println("# gated slots:", gated)
	for _, n := range res.Notes {
		fmt.Println("#", n)
	}
	for _, c := range res.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Printf("check %-32s %-6s %s\n", c.Name, status, c.Detail)
	}
}

// overhead prints traced minus untraced for every end-to-end metric.
func overhead(untraced map[string]float64, traced *Result) {
	fmt.Println("# tracing overhead: traced − untraced per end-to-end metric")
	for _, t := range traced.Metrics {
		u, ok := untraced[t.Name]
		if !ok || !t.OK {
			continue
		}
		rel := 0.0
		if u != 0 {
			rel = 100 * (t.Value - u) / u
		}
		fmt.Printf("overhead %-36s %+12.6g %-10s (%+.1f%%)\n", t.Name, t.Value-u, t.Unit, rel)
	}
}
