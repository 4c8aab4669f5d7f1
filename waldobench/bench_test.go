package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

// TestWorkloadsStayWithinNproc runs each server workload briefly and
// asserts its generator never had more than nproc requests or
// connections in flight.
func TestWorkloadsStayWithinNproc(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full stack")
	}
	for _, name := range []string{"ingest", "fleet"} {
		t.Run(name, func(t *testing.T) {
			res, err := workloads[name](Options{Workload: name, Seed: 3, Seconds: 1, Dir: t.TempDir()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, c := range res.Checks {
				if c.Name == "loadgen.inflight_within_nproc" {
					found = true
					if !c.OK {
						t.Errorf("%s: %s", c.Name, c.Detail)
					}
				}
			}
			if !found {
				t.Error("workload made no in-flight check")
			}
		})
	}
}

// TestGeneratorCountsInflight checks the counters the in-flight check
// reads: a loop with nproc workers against a slow server peaks at nproc
// requests and connections, never above.
func TestGeneratorCountsInflight(t *testing.T) {
	var mu sync.Mutex
	active, peak := 0, 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		active++
		peak = max(peak, active)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		active--
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	gen := NewGenerator(nproc(), nil)
	defer gen.Close()
	loop := &Loop{Rate: 4000, Workers: nproc()}
	loop.Run(context.Background(), 300*time.Millisecond, func(time.Time) {
		resp, err := gen.Client.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		drain(resp)
	})
	if gen.MaxInflight() != nproc() || gen.MaxConns() > nproc() || peak > nproc() {
		t.Errorf("peak in flight %d, connections %d, server saw %d; want %d, ≤%d, ≤%d",
			gen.MaxInflight(), gen.MaxConns(), peak, nproc(), nproc(), nproc())
	}
	if loop.Stats.Dropped == 0 {
		t.Log("loop kept up; the bound held without backlog pressure")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json in step with the
// metrics the program prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	if len(b.EndToEnd) != len(Gated) {
		t.Fatalf("%d end-to-end metrics, program gates %d", len(b.EndToEnd), len(Gated))
	}
	for i, g := range Gated {
		if e := b.EndToEnd[i]; e.Name != g.Name || e.Unit != g.Unit {
			t.Errorf("end_to_end[%d] = %s %s; program prints %s %s", i, e.Name, e.Unit, g.Name, g.Unit)
		}
	}
	if len(b.PerLayer) != len(Layers) {
		t.Fatalf("%d per-layer metrics, program prints %d", len(b.PerLayer), len(Layers))
	}
	for i, l := range Layers {
		if p := b.PerLayer[i]; p.Name != l.Name || p.Unit != l.Unit || p.Better != l.Better {
			t.Errorf("per_layer[%d] = %+v; program prints %s %s %s", i, p, l.Name, l.Unit, l.Better)
		}
	}
}
