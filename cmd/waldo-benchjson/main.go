// Command waldo-benchjson converts `go test -bench` text output on stdin
// into a JSON benchmark report on stdout, so `make bench` can publish a
// machine-readable BENCH_<n>.json artifact without external tooling.
//
// Usage:
//
//	go test -bench . -benchmem ./... | waldo-benchjson > BENCH_2.json
//
// Each benchmark result line
//
//	BenchmarkFoo/sub-8   1000  1234 ns/op  56 B/op  7 allocs/op  9.0 extra/unit
//
// becomes one entry carrying the name (GOMAXPROCS suffix stripped),
// iteration count, ns/op, and any further metric pairs keyed by unit
// (bytes/op and allocs/op from -benchmem, plus custom b.ReportMetric
// units). Context lines (goos, goarch, pkg, cpu) are captured into the
// report header; non-benchmark lines are passed through untouched to
// stderr so failures stay visible. A line that looks like a benchmark
// result but does not parse fails the run — a silently skipped
// measurement would let a regression gate pass vacuously.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name string `json:"name"`
	// Package is the most recent "pkg:" context line.
	Package string  `json:"package,omitempty"`
	Procs   int     `json:"procs,omitempty"`
	Iters   int64   `json:"iterations"`
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds the remaining value/unit pairs (e.g. "B/op",
	// "allocs/op", "retrains/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full run.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// parseLine parses one "Benchmark..." result line; ok is false for
// context and failure lines.
func parseLine(line, pkg string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	name := fields[0]
	procs := 0
	// Strip the trailing -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Package: pkg, Procs: procs, Iters: iters}
	// The rest are value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = v
			continue
		}
		if r.Metrics == nil {
			r.Metrics = make(map[string]float64)
		}
		r.Metrics[unit] = v
	}
	return r, true
}

func run(in *bufio.Scanner, out *json.Encoder) error {
	var rep Report
	var pkg string
	failed := false
	for in.Scan() {
		line := in.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "FAIL"):
			failed = true
			fmt.Fprintln(os.Stderr, line)
		default:
			if r, ok := parseLine(line, pkg); ok {
				rep.Benchmarks = append(rep.Benchmarks, r)
				continue
			}
			// A multi-field line named Benchmark* is a result line that
			// failed to parse — corrupt output, never a context line.
			// Erroring here keeps a truncated bench run from publishing
			// a report that silently misses the mangled measurements.
			if fields := strings.Fields(line); len(fields) >= 2 && strings.HasPrefix(fields[0], "Benchmark") {
				return fmt.Errorf("malformed benchmark line: %q", line)
			}
			if strings.TrimSpace(line) != "" &&
				!strings.HasPrefix(line, "PASS") && !strings.HasPrefix(line, "ok") {
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}
	if err := in.Err(); err != nil {
		return err
	}
	if err := out.Encode(rep); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("benchmark run reported FAIL")
	}
	return nil
}

func main() {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := run(sc, enc); err != nil {
		fmt.Fprintln(os.Stderr, "waldo-benchjson:", err)
		os.Exit(1)
	}
}
