package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wal"
)

// fleet sizes.
const (
	fleetShards     = 3
	fleetDeviceRate = 100 // device operations per second
	// fleetRetrainHz is the broadcast retrain rate of the churn half:
	// ≥100 retrains in 12 s, and a period (107.5 ms) that is no multiple
	// of the device stream's 10 ms, so retrains meet device operations at
	// every phase.
	fleetRetrainHz = 9.3
	// fleetFixedEvery keeps every third campaign reading of the fixed
	// channel (~1760), so broadcast retrains load the 2 cores without
	// saturating them for most of the run.
	fleetFixedEvery = 3
	fleetRouteStepM = 500
	fleetHorizonS   = 600
	fleetUpload     = rfenv.Channel(46) // takes every upload
	fleetFixed      = rfenv.Channel(47) // retrained, never uploaded to
)

var fleetChannels = []rfenv.Channel{fleetUpload, fleetFixed}

// Device operation classes and their 40/30/20/10 mix.
const (
	opAvailability = iota
	opRoute
	opModel
	opUpload
)

var fleetMix = [10]int{opAvailability, opRoute, opModel, opAvailability, opRoute, opUpload, opAvailability, opRoute, opModel, opAvailability}

// fleetStack is a booted 3-shard cluster, one replica per shard, behind
// the gateway.
type fleetStack struct {
	seed       int64
	camp       *Campaign
	dir        string
	prim, repl []*cluster.Node
	primTS     []*httptest.Server
	replTS     []*httptest.Server
	gw         *cluster.Gateway
	gwTS       *httptest.Server

	availURLs  []string
	routes     [][]byte
	routePts   [][]geo.Point
	modelURL   string
	uploads    []payload // even entries one cell, odd entries two cells on different shards
	availCells []cluster.Cell
}

func (s *fleetStack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, n := range append(append([]*cluster.Node(nil), s.prim...), s.repl...) {
		keep(n.Close())
	}
	if s.gw != nil {
		keep(s.gw.Close())
	}
	for _, ts := range append(append([]*httptest.Server{s.gwTS}, s.primTS...), s.replTS...) {
		if ts != nil {
			ts.Close()
		}
	}
	return first
}

func setupFleet(o Options, i int, tr *Tracer, fs wal.FS, gen *Generator) (s *fleetStack, err error) {
	camp, err := NewCampaign(fleetChannels)
	if err != nil {
		return nil, err
	}
	var fixed []dataset.Reading
	for i, r := range camp.Readings[fleetFixed] {
		if i%fleetFixedEvery == 0 {
			fixed = append(fixed, r)
		}
	}
	camp.Readings[fleetFixed] = fixed
	dir, err := dataDir(o, "fleet", i)
	if err != nil {
		return nil, err
	}
	s = &fleetStack{seed: o.Seed, camp: camp, dir: dir}
	defer func() {
		if err != nil {
			s.close()
			os.RemoveAll(dir)
		}
	}()
	var specs []cluster.ShardSpec
	for sh := 0; sh < fleetShards; sh++ {
		name := fmt.Sprintf("shard%d", sh)
		rep, err := cluster.OpenNode(cluster.NodeConfig{ID: name + "-replica", DB: dbConfig(filepath.Join(dir, name+"-replica"), fs)})
		if err != nil {
			return s, err
		}
		s.repl = append(s.repl, rep)
		rts := httptest.NewServer(tr.Handler(name+"-replica", rep.Handler()))
		s.replTS = append(s.replTS, rts)
		prim, err := cluster.OpenNode(cluster.NodeConfig{
			ID: name, DB: dbConfig(filepath.Join(dir, name), fs), ReplicaURLs: []string{rts.URL},
		})
		if err != nil {
			return s, err
		}
		s.prim = append(s.prim, prim)
		pts := httptest.NewServer(tr.Handler(name, prim.Handler()))
		s.primTS = append(s.primTS, pts)
		specs = append(specs, cluster.ShardSpec{ID: name, URLs: []string{pts.URL, rts.URL}})
	}
	if s.gw, err = cluster.NewGateway(cluster.GatewayConfig{Shards: specs}); err != nil {
		return s, err
	}
	s.gwTS = httptest.NewServer(tr.Handler("gateway", s.gw.Handler()))

	// Routed bootstrap: one JSON upload per (channel, cell), then a
	// broadcast retrain per channel.
	ctx := context.Background()
	for _, ch := range fleetChannels {
		for _, g := range ByCell(camp.Readings[ch]) {
			p, err := encodePayload(ch, g)
			if err != nil {
				return s, err
			}
			if !upload(ctx, gen.Client, s.gwTS.URL, p, true) {
				return s, fmt.Errorf("fleet bootstrap upload on channel %d failed", int(ch))
			}
		}
		if !retrain(ctx, gen.Client, s.gwTS.URL, ch) {
			return s, fmt.Errorf("fleet bootstrap retrain of channel %d failed", int(ch))
		}
	}
	if err := s.inputs(o.Seed, specs); err != nil {
		return s, err
	}
	// Warm-up: one pass over the operation mix and one retrain.
	poller := newModelPoller()
	for n := 0; n < 40; n++ {
		if _, err := s.deviceOp(ctx, gen.Client, poller, n); err != nil {
			return s, fmt.Errorf("fleet warm-up: %w", err)
		}
	}
	if !retrain(ctx, gen.Client, s.gwTS.URL, fleetFixed) {
		return s, fmt.Errorf("fleet warm-up retrain failed")
	}
	return s, nil
}

// inputs generates the device stream's seeded queries and uploads.
func (s *fleetStack) inputs(seed int64, specs []cluster.ShardSpec) error {
	rng := rand.New(rand.NewSource(seed))
	var all []dataset.Reading
	for _, ch := range fleetChannels {
		all = append(all, s.camp.Readings[ch]...)
	}
	for j := 0; j < payloadPool; j++ {
		p := all[rng.Intn(len(all))].Loc
		s.availURLs = append(s.availURLs, fmt.Sprintf("%s/v1/availability?lat=%.6f&lon=%.6f&channels=%d,%d",
			s.gwTS.URL, p.Lat, p.Lon, int(fleetUpload), int(fleetFixed)))
		s.availCells = append(s.availCells, cluster.CellOf(p, cluster.DefaultCellDeg))
		bearing := rng.Float64() * 360
		pts := []geo.Point{p, p.Offset(bearing, 2500), p.Offset(bearing+30, 5000)}
		req := dbserver.RouteRequestJSON{HorizonS: fleetHorizonS, StepM: fleetRouteStepM,
			Channels: []int{int(fleetUpload), int(fleetFixed)}, Sensor: int(sensor.KindRTLSDR)}
		for _, q := range pts {
			req.Points = append(req.Points, dbserver.RoutePointJSON{Lat: q.Lat, Lon: q.Lon})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		s.routes = append(s.routes, body)
		s.routePts = append(s.routePts, pts)
	}
	fixed := s.camp.Readings[fleetFixed][0].Loc
	s.modelURL = fmt.Sprintf("%s&lat=%.6f&lon=%.6f", modelURL(s.gwTS.URL, fleetFixed), fixed.Lat, fixed.Lon)

	// Uploads on the upload channel: single-cell frames, and frames whose
	// halves lie in cells owned by different shards, so the gateway splits.
	ids := make([]string, len(specs))
	for i, sp := range specs {
		ids[i] = sp.ID
	}
	ring, err := cluster.NewRing(cluster.RingConfig{}, ids)
	if err != nil {
		return err
	}
	groups := ByCell(s.camp.Readings[fleetUpload])
	owner := func(g []dataset.Reading) string {
		return ring.Owner(cluster.RouteKey{Channel: fleetUpload, Cell: cluster.CellOf(g[0].Loc, cluster.DefaultCellDeg)})
	}
	take := func(g []dataset.Reading, n int) []dataset.Reading {
		off := rng.Intn(len(g))
		out := make([]dataset.Reading, n)
		for j := range out {
			out[j] = g[(off+j)%len(g)]
		}
		return out
	}
	for len(s.uploads) < payloadPool {
		a := groups[rng.Intn(len(groups))]
		rs := take(a, ingestBatch)
		if len(s.uploads)%2 == 1 {
			b := groups[rng.Intn(len(groups))]
			if owner(a) == owner(b) {
				continue
			}
			rs = append(take(a, ingestBatch/2), take(b, ingestBatch/2)...)
		}
		p, err := encodePayload(fleetUpload, rs)
		if err != nil {
			return err
		}
		s.uploads = append(s.uploads, p)
	}
	return nil
}

// class is device operation n's kind: the 40/30/20/10 mix, shuffled per
// block of ten by the seed, so no kind keeps a fixed phase against the
// periodic retrains.
func (s *fleetStack) class(n int) int {
	block := rand.New(rand.NewSource(s.seed*1_000_003 + int64(n/len(fleetMix)))).Perm(len(fleetMix))
	return fleetMix[block[n%len(fleetMix)]]
}

// deviceOp runs device operation n of the mix. A response that does not
// decode is an error; other failures return false.
func (s *fleetStack) deviceOp(ctx context.Context, c *http.Client, poller *ModelPoller, n int) (bool, error) {
	pick := (n * 7919) % payloadPool
	switch s.class(n) {
	case opAvailability:
		var out dbserver.AvailabilityJSON
		return getJSON(ctx, c, http.MethodGet, s.availURLs[pick], nil, &out, func() bool { return len(out.Channels) > 0 })
	case opRoute:
		var out dbserver.RouteJSON
		return getJSON(ctx, c, http.MethodPost, s.gwTS.URL+"/v1/route", s.routes[pick], &out, func() bool { return len(out.Segments) > 0 })
	case opModel:
		return poller.Poll(ctx, c, s.modelURL, false), nil
	default:
		return upload(ctx, c, s.gwTS.URL, s.uploads[(n/len(fleetMix))%len(s.uploads)], false), nil
	}
}

// getJSON sends a query and decodes a 200 answer into out; valid checks
// the decoded answer.
func getJSON(ctx context.Context, c *http.Client, method, url string, body []byte, out any, valid func() bool) (bool, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return false, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return false, nil
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return false, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil || !valid() {
		return false, fmt.Errorf("%s %s: answer does not decode: %v", method, url, err)
	}
	return true, nil
}

func retrain(ctx context.Context, c *http.Client, base string, ch rfenv.Channel) bool {
	url := fmt.Sprintf("%s/v1/retrain?channel=%d&sensor=%d", base, int(ch), int(sensor.KindRTLSDR))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return false
	}
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	drain(resp)
	return resp.StatusCode == http.StatusOK
}

func (s *fleetStack) generations() uint64 {
	var g uint64
	for _, n := range append(append([]*cluster.Node(nil), s.prim...), s.repl...) {
		g += n.DB.GeoIndex().Snapshot().Generation
	}
	return g
}

func runFleet(o Options, tr *Tracer) (*Result, error) {
	res := &Result{Layers: map[string]float64{}}
	walFS, walStats := NewWALFS(tr)
	gen := NewGenerator(nproc(), tr)
	defer gen.Close()

	st, setupS, err := setUp(
		func(i int) (*fleetStack, error) { return setupFleet(o, i, tr, walFS, gen) },
		func(s *fleetStack) error { defer os.RemoveAll(s.dir); return s.close() })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(st.dir)
	res.add(val("setup_s", setupS, "s"))

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	poller := newModelPoller()
	var seq atomic.Uint64
	var decodeErrs atomic.Int64
	var firstDecodeErr atomic.Value
	var uploaded atomic.Int64
	// devicePhase runs the device stream for d, timing each kind into lat;
	// a dropped send counts as a miss of the kind it would have had.
	devicePhase := func(d time.Duration, lat map[int]*Samples) *Loop {
		loop := &Loop{Rate: fleetDeviceRate, Workers: 1}
		first := int(seq.Load())
		var ran [4]atomic.Int64
		loop.Run(ctx, d, func(scheduled time.Time) {
			n := int(seq.Add(1) - 1)
			class := st.class(n)
			ran[class].Add(1)
			ok, err := st.deviceOp(ctx, gen.Client, poller, n)
			if err != nil {
				decodeErrs.Add(1)
				firstDecodeErr.CompareAndSwap(nil, err.Error())
			}
			if !ok {
				lat[class].Miss(1)
				return
			}
			if class == opUpload {
				uploaded.Add(ingestBatch)
			}
			lat[class].Observe(time.Since(scheduled))
		})
		var want [4]int64
		for n := first; n < first+int(loop.Stats.Scheduled); n++ {
			want[st.class(n)]++
		}
		for c := range want {
			if miss := want[c] - ran[c].Load(); miss > 0 {
				lat[c].Miss(int(miss))
			}
		}
		return loop
	}

	// The replication-lag poller runs only in the traced pass.
	var lagMax atomic.Int64
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	if tr != nil {
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopLag:
					return
				case <-tick.C:
				}
				for _, n := range st.prim {
					if l := int64(n.ReplicationLag()); l > lagMax.Load() {
						lagMax.Store(l)
					}
				}
			}
		}()
	}

	gen0 := st.generations()
	runtime0 := telemetry.ReadRuntime()
	walStats.on.Store(true)
	measureStart := time.Now()
	half := o.Duration() / 2
	// Quiet half: the device stream alone.
	quiet := map[int]*Samples{opAvailability: {}, opRoute: {}, opModel: {}, opUpload: {}}
	quietLoop := devicePhase(half, quiet)
	// Churn half: the device stream beside the operator's retrains.
	churn := map[int]*Samples{opAvailability: {}, opRoute: {}, opModel: {}, opUpload: {}}
	var retrains Samples
	operator := &Loop{Rate: fleetRetrainHz, Workers: 1}
	var opWG sync.WaitGroup
	opWG.Add(1)
	go func() {
		defer opWG.Done()
		operator.Run(ctx, half, func(scheduled time.Time) {
			if !retrain(ctx, gen.Client, st.gwTS.URL, fleetFixed) {
				retrains.Miss(1)
				return
			}
			retrains.Observe(time.Since(scheduled))
		})
	}()
	churnLoop := devicePhase(half, churn)
	opWG.Wait()
	measured := time.Since(measureStart)
	walStats.on.Store(false)
	close(stopLag)
	lagWG.Wait()
	runtimeLayers(runtime0, int(quietLoop.Stats.Completed+churnLoop.Stats.Completed+operator.Stats.Completed), res.Layers)
	genDelta := st.generations() - gen0
	if miss := int(operator.Stats.Scheduled - operator.Stats.Completed); miss > 0 {
		retrains.Miss(miss)
	}

	kinds := []struct {
		name string
		op   int
	}{{"upload", opUpload}, {"model", opModel}, {"availability", opAvailability}, {"route", opRoute}}
	for _, k := range kinds {
		res.add(pctWindowed(k.name+"_p50_ms", quiet[k.op], 0.5, "ms"), pctWindowed(k.name+"_p90_ms", quiet[k.op], 0.9, "ms"))
	}
	for _, k := range kinds {
		res.add(pctWindowed(k.name+"_churn_p50_ms", churn[k.op], 0.5, "ms"), pctWindowed(k.name+"_churn_p90_ms", churn[k.op], 0.9, "ms"))
	}
	res.add(pctWindowed("retrain_p50_ms", &retrains, 0.5, "ms"), pctWindowed("retrain_p90_ms", &retrains, 0.9, "ms"))
	res.Gated = map[string]string{
		"main_p50_ms": "availability_p50_ms", "main_p90_ms": "availability_p90_ms",
		"aux_p50_ms": "retrain_p50_ms", "aux_p90_ms": "retrain_p90_ms",
	}
	diag(res, "availability_churn", churn[opAvailability])
	res.Attempted = int(quietLoop.Stats.Scheduled + churnLoop.Stats.Scheduled + operator.Stats.Scheduled)
	var all []*Samples
	for _, k := range kinds {
		all = append(all, quiet[k.op], churn[k.op])
	}
	res.Failed = countMisses(append(all, &retrains)...)
	failedShare(res)
	loopLayers(res, quietLoop, churnLoop, operator)
	res.note("fleet: %d broadcast retrains, %d model bodies decoded, grid generations +%d", retrains.Len(), poller.decodes.Load(), genDelta)

	res.check("loadgen.inflight_within_nproc", gen.MaxInflight() <= nproc() && gen.MaxConns() <= nproc(),
		"at most %d requests and %d connections in flight; nproc %d", gen.MaxInflight(), gen.MaxConns(), nproc())
	// Correctness.
	if v := firstDecodeErr.Load(); v != nil {
		res.check("fleet.responses_decode", false, "%d answers failed to decode; first: %s", decodeErrs.Load(), v)
	} else {
		res.check("fleet.responses_decode", true, "every availability and route answer decodes")
	}
	poller.mu.Lock()
	nd := len(poller.digests[st.modelURL])
	poller.mu.Unlock()
	res.check("fleet.fixed_model_one_digest", nd == 1, "%d distinct bodies over %d fetches of channel %d", nd, poller.decodes.Load(), int(fleetFixed))
	dctx, dcancel := context.WithTimeout(ctx, 20*time.Second)
	for _, n := range st.prim {
		if err := n.Drain(dctx); err != nil {
			res.check("fleet.replication_drains", false, "drain: %v", err)
		}
	}
	dcancel()
	mismatch := 0
	for sh := range st.prim {
		for _, ch := range fleetChannels {
			a, sa := fetch(gen.Client, modelURL(st.primTS[sh].URL, ch))
			b, sb := fetch(gen.Client, modelURL(st.replTS[sh].URL, ch))
			if sa != sb || !bytes.Equal(a, b) {
				mismatch++
				res.note("shard%d channel %d: primary %d (%d B), replica %d (%d B)", sh, int(ch), sa, len(a), sb, len(b))
			}
		}
	}
	res.check("fleet.replica_models_match", mismatch == 0, "%d of %d primary/replica model pairs differ at quiesce", mismatch, len(st.prim)*len(fleetChannels))

	if tr != nil {
		var bases []string
		for _, ts := range append(append([]*httptest.Server(nil), st.primTS...), st.replTS...) {
			bases = append(bases, ts.URL)
		}
		cacheRatio(gen.Client, bases, res)
		res.Layers["cluster.replication_lag_max"] = float64(lagMax.Load())
		if c := retrains.Len(); c > 0 {
			res.Layers["geoindex.rebuilds_per_retrain"] = float64(genDelta) / float64(c)
		}
		walLayers(res.Layers, walStats, measured, int(uploaded.Load()))
		replayFleet(ctx, o, res, st, gen.Client, tr)
		replayUploads(ctx, o, res.Layers, st.camp, st.uploads, tr)
		replayModels(res.Layers, poller, tr)
	}
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("close cluster: %w", err)
	}
	res.add(val("peak_rss_mb", peakRSSMB(), "MB"))
	return res, nil
}

// fetch GETs url and returns its body and status (0 on transport error).
func fetch(c *http.Client, url string) ([]byte, int) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0
	}
	return b, resp.StatusCode
}
