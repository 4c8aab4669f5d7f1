package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wal"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// Paper-scale campaign: 5282 RTL-SDR readings per channel (§2.1).
const paperSamples = 5282

// campaignSeed fixes the metro, the bootstrap campaign and model
// training, so every run loads the same stores and trains the same
// models; --seed drives what the devices send, where and when they ask.
const campaignSeed = 42

// Shipped server policies, as waldo-server runs them: compaction after
// 10 000 journaled readings, the WAL's default 5 ms group commit.
const snapshotEvery = 10000

// Check is one correctness check of a run.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Result is everything one measured pass of a workload produced.
type Result struct {
	// Metrics are the workload's end-to-end metrics under the names the
	// report uses; Gated maps each BENCHMARK.json metric to one of them.
	Metrics []Metric
	Gated   map[string]string
	// Layers are the per-layer metrics of a traced pass.
	Layers    map[string]float64
	Attempted int
	Failed    int
	Checks    []Check
	Notes     []string
}

func (r *Result) add(m ...Metric) { r.Metrics = append(r.Metrics, m...) }

func (r *Result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Options are the command-line inputs of a run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  int
	// Dir holds the run's WAL data directories and span dumps.
	Dir string
}

// Duration is the measured window.
func (o Options) Duration() time.Duration { return time.Duration(o.Seconds) * time.Second }

// Campaign is a simulated war-driving campaign: the metro environment and
// the RTL-SDR readings per channel.
type Campaign struct {
	Env      *rfenv.Environment
	Readings map[rfenv.Channel][]dataset.Reading
}

// NewCampaign simulates the bootstrap campaign for channels.
func NewCampaign(channels []rfenv.Channel) (*Campaign, error) {
	const seed, samples = campaignSeed, paperSamples
	env, err := rfenv.BuildMetro(uint64(seed))
	if err != nil {
		return nil, err
	}
	route, err := wardrive.GenerateRoute(wardrive.RouteConfig{Area: env.Area, Samples: samples, Seed: seed})
	if err != nil {
		return nil, err
	}
	rtl, err := sensor.SpecFor(sensor.KindRTLSDR)
	if err != nil {
		return nil, err
	}
	camp, err := wardrive.Run(wardrive.CampaignConfig{
		Env: env, Route: route, Sensors: []sensor.Spec{rtl}, Channels: channels, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	c := &Campaign{Env: env, Readings: make(map[rfenv.Channel][]dataset.Reading)}
	for _, ch := range channels {
		rs := camp.Readings(ch, sensor.KindRTLSDR)
		if len(rs) == 0 {
			return nil, fmt.Errorf("campaign produced no readings on channel %d", int(ch))
		}
		c.Readings[ch] = rs
	}
	return c, nil
}

// ByCell groups a channel's readings by geo cell, in first-seen order.
func ByCell(rs []dataset.Reading) [][]dataset.Reading {
	index := make(map[cluster.Cell]int)
	var groups [][]dataset.Reading
	for _, r := range rs {
		c := cluster.CellOf(r.Loc, cluster.DefaultCellDeg)
		i, ok := index[c]
		if !ok {
			i = len(groups)
			index[c] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	return groups
}

// dbConfig is one server's configuration: the shipped WAL and compaction
// policies, the paper's k = 3 localities, and an optional timing FS.
func dbConfig(dir string, fs wal.FS) dbserver.Config {
	return dbserver.Config{
		Constructor:   core.ConstructorConfig{ClusterK: 3, Seed: campaignSeed},
		DataDir:       dir,
		SnapshotEvery: snapshotEvery,
		WALFS:         fs,
	}
}

// setupRepeats is how many times a run sets its stack up; setup_s is
// their median and the last one is measured.
const setupRepeats = 5

// setUp builds a workload's stack setupRepeats times, tearing down all
// but the last, and returns the last with the median set-up seconds.
// teardown may be nil for a stack that holds nothing to release.
func setUp[T any](setup func(i int) (T, error), teardown func(T) error) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		s, err := setup(i)
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < setupRepeats-1 && teardown != nil {
			if err := teardown(s); err != nil {
				return last, 0, err
			}
		}
		last = s
	}
	return last, Median(secs), nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// runtimeLayers reads the Go runtime rows over a measured window.
func runtimeLayers(before telemetry.RuntimeSnapshot, ops int, layers map[string]float64) {
	d := telemetry.ReadRuntime().DeltaSince(before)
	layers["runtime.gc_cycles"] = float64(d.GCCycles)
	layers["runtime.gc_pause_p90_us"] = d.Pauses.Quantile(0.9) * 1e6
	if ops > 0 {
		layers["runtime.alloc_bytes_per_op"] = float64(d.AllocBytes) / float64(ops)
	}
}

// dataDir makes a fresh directory for one stack's WAL under the run dir.
func dataDir(o Options, name string, i int) (string, error) {
	dir := filepath.Join(o.Dir, "data", fmt.Sprintf("%s-%d-%d", name, os.Getpid(), i))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
