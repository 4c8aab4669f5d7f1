package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/geoindex"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// The traced pass measures core, dataset and geoindex by replaying the
// run's recorded inputs through their public functions, outside the
// servers: the frames it sent, the model bodies it fetched, the stores
// it trained, the queries it asked.

// us is d in microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeEach runs fn reps times and returns the median duration in µs.
func timeEach(reps int, fn func()) float64 {
	v := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		v = append(v, us(time.Since(start)))
	}
	return Median(v)
}

// replayUploads times batch-frame decode and Updater.SubmitCtx on the
// uploads the run sent, the latter idle and beside a concurrent Retrain
// to show the updater lock wait.
func replayUploads(ctx context.Context, o Options, layers map[string]float64, camp *Campaign, pool []payload, tr *Tracer) {
	var dec []float64
	batches := make(map[rfenv.Channel][][]dataset.Reading)
	tr.Time("replay/core.DecodeBatchFrame", func() {
		var scratch []dataset.Reading
		for rep := 0; rep < 16; rep++ {
			for _, p := range pool {
				start := time.Now()
				rs, _, err := core.DecodeBatchFrame(scratch[:0], p.frame)
				dec = append(dec, us(time.Since(start)))
				scratch = rs
				if err == nil && rep == 0 {
					batches[p.ch] = append(batches[p.ch], append([]dataset.Reading(nil), rs...))
				}
			}
		}
	})
	layers["core.decode_frame_us"] = Median(dec)

	ch := pool[0].ch
	u, err := core.NewUpdater(core.UpdaterConfig{
		Constructor: core.ConstructorConfig{ClusterK: 3, Seed: campaignSeed},
		Channel:     ch, Sensor: sensor.KindRTLSDR,
	})
	if err != nil {
		return
	}
	u.BootstrapCtx(ctx, camp.Readings[ch])
	submit := func() float64 {
		var v []float64
		for rep := 0; rep < 8; rep++ {
			for _, rs := range batches[ch] {
				start := time.Now()
				u.SubmitCtx(ctx, core.UploadBatch{Readings: rs, CISpanDB: uploadCISpanDB}) //nolint:errcheck // timing only
				v = append(v, us(time.Since(start)))
			}
		}
		return Median(v)
	}
	tr.Time("replay/core.Updater.SubmitCtx", func() { layers["core.submit_us"] = submit() })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			u.RetrainCtx(ctx) //nolint:errcheck // load only
		}
	}()
	tr.Time("replay/core.Updater.SubmitCtx+Retrain", func() { layers["core.submit_contended_us"] = submit() })
	close(stop)
	wg.Wait()
}

// replayModels times descriptor decode and re-encode on the model bodies
// the run fetched.
func replayModels(layers map[string]float64, poller *ModelPoller, tr *Tracer) {
	poller.mu.Lock()
	var bodies [][]byte
	for _, b := range poller.bodies {
		bodies = append(bodies, b)
	}
	poller.mu.Unlock()
	replayBodies(layers, bodies, tr)
}

func replayBodies(layers map[string]float64, bodies [][]byte, tr *Tracer) {
	if len(bodies) == 0 {
		return
	}
	var enc, dec, size []float64
	tr.Time("replay/core.EncodeModel+DecodeModel", func() {
		for _, b := range bodies {
			var m *core.Model
			dec = append(dec, timeEach(32, func() { m, _ = core.DecodeModel(bytes.NewReader(b)) }))
			if m == nil {
				continue
			}
			var buf bytes.Buffer
			enc = append(enc, timeEach(32, func() {
				buf.Reset()
				core.EncodeModel(&buf, m) //nolint:errcheck // timing only
			}))
			size = append(size, float64(len(b)))
		}
	})
	layers["core.decode_model_us"] = Median(dec)
	layers["core.encode_model_us"] = Median(enc)
	layers["core.model_bytes"] = Median(size)
}

// replayFleet times labeling, model building and the geo grid on the
// fixed channel's per-shard stores as the cluster holds them.
func replayFleet(ctx context.Context, o Options, res *Result, st *fleetStack, c *http.Client, tr *Tracer) {
	var label, build []float64
	var stores []geoindex.StoreSnapshot
	for sh := range st.primTS {
		for _, ch := range fleetChannels {
			rs, err := exportStore(c, st.primTS[sh].URL, ch)
			if err != nil || len(rs) == 0 {
				continue
			}
			var labels []dataset.Label
			var m *core.Model
			for rep := 0; rep < 3; rep++ {
				l := tr.Time("replay/dataset.LabelReadings", func() { labels, err = dataset.LabelReadings(rs, dataset.LabelConfig{}) })
				if err != nil {
					break
				}
				b := tr.Time("replay/core.BuildModel", func() {
					m, err = core.BuildModel(rs, labels, core.ConstructorConfig{ClusterK: 3, Seed: campaignSeed})
				})
				if err != nil {
					break
				}
				if ch == fleetFixed {
					label = append(label, float64(l)/float64(time.Millisecond))
					build = append(build, float64(b)/float64(time.Millisecond))
				}
			}
			if sh == 0 && m != nil {
				recent := rs
				if len(recent) > geoindex.DefaultMaxRecent {
					recent = recent[len(recent)-geoindex.DefaultMaxRecent:]
				}
				stores = append(stores, geoindex.StoreSnapshot{Channel: ch, Sensor: sensor.KindRTLSDR, Model: m, ModelVersion: 1, Recent: recent})
			}
		}
	}
	res.Layers["dataset.label_ms"] = Median(label)
	res.Layers["core.build_model_ms"] = Median(build)

	idx := geoindex.New(geoindex.Config{Source: func() []geoindex.StoreSnapshot { return stores }})
	defer idx.Close()
	var snap *geoindex.Snapshot
	var rebuild []float64
	for rep := 0; rep < 5; rep++ {
		d := tr.Time("replay/geoindex.Rebuild", func() { snap = idx.Rebuild(ctx) })
		rebuild = append(rebuild, float64(d)/float64(time.Millisecond))
	}
	res.Layers["geoindex.rebuild_ms"] = Median(rebuild)
	var lookup, route []float64
	tr.Time("replay/geoindex.Lookup+SampleRoute", func() {
		for i, cell := range st.availCells {
			lookup = append(lookup, timeEach(16, func() { snap.Lookup(cell) }))
			pts := st.routePts[i]
			route = append(route, timeEach(16, func() { geoindex.SampleRoute(pts, fleetRouteStepM, cluster.DefaultCellDeg) }))
		}
	})
	res.Layers["geoindex.lookup_us"] = Median(lookup)
	res.Layers["geoindex.sample_route_us"] = Median(route)
}

// exportStore reads one store off a server's CSV export.
func exportStore(c *http.Client, base string, ch rfenv.Channel) ([]dataset.Reading, error) {
	resp, err := c.Get(fmt.Sprintf("%s/v1/export?channel=%d&sensor=%d", base, int(ch), int(sensor.KindRTLSDR)))
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, nil
	}
	return dataset.ReadCSV(resp.Body)
}
