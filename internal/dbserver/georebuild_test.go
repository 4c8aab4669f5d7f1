package dbserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/benchharness"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/wardrive"
)

// geoQueryP99 drives open-loop availability and route streams at 400
// queries/s each for 1.2 s against baseURL and returns each endpoint's
// p99, timed from the scheduled send. Every query must answer 200.
func geoQueryP99(t *testing.T, hc *http.Client, baseURL string, starts []geo.Point) (availP99, routeP99 time.Duration) {
	t.Helper()
	type query struct {
		availURL  string
		routeBody []byte
	}
	var pool []query
	for i := 0; i < 16; i++ {
		start := starts[i%len(starts)]
		bearing := float64((i * 53) % 360)
		req := RouteRequestJSON{StepM: 500, HorizonS: 300}
		for _, p := range []geo.Point{start, start.Offset(bearing, 2500), start.Offset(bearing+30, 5000)} {
			req.Points = append(req.Points, RoutePointJSON{Lat: p.Lat, Lon: p.Lon})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, query{
			availURL:  fmt.Sprintf("%s/v1/availability?lat=%.6f&lon=%.6f", baseURL, start.Lat, start.Lon),
			routeBody: body,
		})
	}

	var mu sync.Mutex
	var failures int
	// stream runs one open-loop query stream and collects the latency
	// of every 200 answer.
	stream := func(newReq func(q query) (*http.Request, error), into *[]time.Duration) {
		var seq atomic.Uint64
		cfg := benchharness.OpenLoopConfig{Rate: 400, Workers: 16, Duration: 1200 * time.Millisecond}
		benchharness.RunOpenLoop(context.Background(), cfg, func(_ int, scheduled time.Time) {
			req, err := newReq(pool[seq.Add(1)%uint64(len(pool))])
			var resp *http.Response
			if err == nil {
				resp, err = hc.Do(req)
			}
			ok := err == nil && resp.StatusCode == http.StatusOK
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
				resp.Body.Close()
			}
			lat := time.Since(scheduled)
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				failures++
				return
			}
			*into = append(*into, lat)
		})
	}
	var availLat, routeLat []time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		stream(func(q query) (*http.Request, error) {
			return http.NewRequest(http.MethodGet, q.availURL, nil)
		}, &availLat)
	}()
	go func() {
		defer wg.Done()
		stream(func(q query) (*http.Request, error) {
			req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/route", bytes.NewReader(q.routeBody))
			if err == nil {
				req.Header.Set("Content-Type", "application/json")
			}
			return req, err
		}, &routeLat)
	}()
	wg.Wait()
	// Queries have no legitimate failure mode against a healthy
	// in-process server: every error is a bug.
	if failures != 0 {
		t.Fatalf("%d geo queries failed", failures)
	}
	p99 := func(lat []time.Duration) time.Duration {
		if len(lat) == 0 {
			t.Fatal("no geo query completed")
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)*99/100]
	}
	return p99(availLat), p99(routeLat)
}

// TestGeoRebuildOffRequestPath is the acceptance criterion for the
// snapshot-then-swap design: availability and route latency with grid
// rebuilds churning underneath must stay in the same regime as with the
// grid quiescent. If rebuilds ever move onto the request path (a lock
// shared with queries, a synchronous rebuild in a handler), the churn
// run's tail blows out by orders of magnitude and this fails.
func TestGeoRebuildOffRequestPath(t *testing.T) {
	if raceEnabled {
		// The race detector multiplies the rebuild's CPU cost ~10×,
		// so on a small box the builder goroutine physically starves
		// the request path for the core — real contention, but not
		// the lock-sharing bug this test gates on. The strict
		// assertion runs in every race-free `go test ./...`.
		t.Skip("latency-regime assertion is meaningless under the race detector's CPU multiplier")
	}

	// A paper-shaped bootstrap: a 120-point war-driving campaign on two
	// query channels plus a churn channel whose retrains only feed the
	// rebuild machinery.
	const churnCh = rfenv.Channel(48)
	channels := []rfenv.Channel{46, 47, churnCh}
	env, err := rfenv.BuildMetro(42)
	if err != nil {
		t.Fatal(err)
	}
	route, err := wardrive.GenerateRoute(wardrive.RouteConfig{Area: env.Area, Samples: 120, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	camp, err := wardrive.Run(wardrive.CampaignConfig{
		Env: env, Route: route, Sensors: []sensor.Spec{sensor.RTLSDR()}, Channels: channels, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []dataset.Reading
	var starts []geo.Point
	for _, ch := range channels {
		rs := camp.Readings(ch, sensor.KindRTLSDR)
		all = append(all, rs...)
		if ch != churnCh {
			starts = append(starts, rs[0].Loc)
		}
	}
	s := New(Config{Constructor: core.ConstructorConfig{ClusterK: 3, Seed: 42}, AlphaPrimeDB: 1})
	defer s.Close()
	if err := s.Bootstrap(all); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}, Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()

	// The bootstrap's last retrain schedules a coalesced rebuild that
	// can publish after Bootstrap returns; wait for the grid to quiesce
	// so the baseline really is rebuild-free.
	gen := s.GeoIndex().Snapshot().Generation
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(150 * time.Millisecond)
		next := s.GeoIndex().Snapshot().Generation
		if next == gen {
			break
		}
		gen = next
	}
	quietAvail, quietRoute := geoQueryP99(t, hc, ts.URL, starts)
	if got := s.GeoIndex().Snapshot().Generation; got != gen {
		t.Fatalf("quiet run saw %d rebuilds, want 0", got-gen)
	}

	// Churn: retrain every 250 ms while the same query streams run.
	ctx, stop := context.WithCancel(context.Background())
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		url := fmt.Sprintf("%s/v1/retrain?channel=%d&sensor=%d", ts.URL, int(churnCh), int(sensor.KindRTLSDR))
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			if resp, err := hc.Post(url, "", nil); err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
				resp.Body.Close()
			}
		}
	}()
	churnAvail, churnRoute := geoQueryP99(t, hc, ts.URL, starts)
	stop()
	churn.Wait()
	if got := s.GeoIndex().Snapshot().Generation; got == gen {
		t.Fatal("no grid rebuilds published during the churn run")
	}

	// Lenient on purpose: scheduler noise on a loaded CI box is real,
	// but an on-request-path rebuild costs whole model evaluations per
	// query and lands far beyond 10× + 20 ms.
	for _, c := range []struct {
		name         string
		quiet, churn time.Duration
	}{{"availability", quietAvail, churnAvail}, {"route", quietRoute, churnRoute}} {
		t.Logf("%s p99: quiet %v, churn %v", c.name, c.quiet, c.churn)
		if c.churn > 10*c.quiet+20*time.Millisecond {
			t.Errorf("%s p99 %v under rebuild churn vs %v quiet: rebuild work is on the request path",
				c.name, c.churn, c.quiet)
		}
	}
}
