package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wal"
)

// ingest sizes.
const (
	ingestRate      = 20000 // phase-1 offered readings per second
	ingestBatch     = 32    // readings per upload
	ingestJSONShare = 0.2   // share of phase-1 uploads sent as JSON
	ingestPollRate  = 20    // phase-1 model polls per second
	ingestPhase2    = 1 << 20
	payloadPool     = 256
	uploadCISpanDB  = 0.2 // every upload clears α′ = 1 dB
)

var ingestChannels = []rfenv.Channel{46, 47}

// payload is one pre-encoded upload of readings from a single geo cell.
type payload struct {
	ch    rfenv.Channel
	n     int
	frame []byte // binary batch frame
	json  []byte // the same readings as an UploadJSON body
}

// buildPayloads encodes a seeded pool of single-cell uploads over the
// given channels' readings.
func buildPayloads(rng *rand.Rand, camp *Campaign, channels []rfenv.Channel, batch int) ([]payload, error) {
	pool := make([]payload, 0, payloadPool)
	groups := make(map[rfenv.Channel][][]dataset.Reading)
	for _, ch := range channels {
		groups[ch] = ByCell(camp.Readings[ch])
	}
	for len(pool) < payloadPool {
		ch := channels[len(pool)%len(channels)]
		g := groups[ch][rng.Intn(len(groups[ch]))]
		off := rng.Intn(len(g))
		rs := make([]dataset.Reading, batch)
		for j := range rs {
			rs[j] = g[(off+j)%len(g)]
		}
		p, err := encodePayload(ch, rs)
		if err != nil {
			return nil, err
		}
		pool = append(pool, p)
	}
	return pool, nil
}

func encodePayload(ch rfenv.Channel, rs []dataset.Reading) (payload, error) {
	frame, err := core.EncodeBatchFrame(rs)
	if err != nil {
		return payload{}, err
	}
	up := dbserver.UploadJSON{CISpanDB: uploadCISpanDB}
	for _, r := range rs {
		up.Readings = append(up.Readings, dbserver.FromReading(r))
	}
	body, err := json.Marshal(up)
	if err != nil {
		return payload{}, err
	}
	return payload{ch: ch, n: len(rs), frame: frame, json: body}, nil
}

// upload sends p as a binary frame or as JSON and reports whether the
// server acknowledged it (204).
func upload(ctx context.Context, c *http.Client, base string, p payload, asJSON bool) bool {
	var req *http.Request
	var err error
	if asJSON {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/readings", bytes.NewReader(p.json))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/upload/batch", bytes.NewReader(p.frame))
		if err == nil {
			req.Header.Set(dbserver.CISpanHeader, strconv.FormatFloat(uploadCISpanDB, 'f', -1, 64))
		}
	}
	if err != nil {
		return false
	}
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	drain(resp)
	return resp.StatusCode == http.StatusNoContent
}

// ModelPoller polls one store's model the way a device fleet does: with
// the last ETag, so most polls revalidate, and fetching plus decoding
// the full descriptor otherwise.
type ModelPoller struct {
	mu     sync.Mutex
	etags  map[string]string
	bodies map[string][]byte // last 200 body per URL
	// digests counts distinct 200 bodies per URL.
	digests map[string]map[string]bool
	decodes atomic.Int64
}

func newModelPoller() *ModelPoller {
	return &ModelPoller{etags: map[string]string{}, bodies: map[string][]byte{}, digests: map[string]map[string]bool{}}
}

// Poll fetches url; full forces a fetch without If-None-Match. It reports
// whether the poll succeeded (200 that decodes, or 304).
func (m *ModelPoller) Poll(ctx context.Context, c *http.Client, url string, full bool) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	m.mu.Lock()
	etag := m.etags[url]
	m.mu.Unlock()
	if !full && etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		drain(resp)
		return true
	case http.StatusOK:
	default:
		drain(resp)
		return false
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return false
	}
	if _, err := core.DecodeModel(bytes.NewReader(buf.Bytes())); err != nil {
		return false
	}
	m.decodes.Add(1)
	m.mu.Lock()
	m.etags[url] = resp.Header.Get("ETag")
	m.bodies[url] = buf.Bytes()
	if m.digests[url] == nil {
		m.digests[url] = map[string]bool{}
	}
	m.digests[url][digest(buf.Bytes())] = true
	m.mu.Unlock()
	return true
}

func modelURL(base string, ch rfenv.Channel) string {
	return fmt.Sprintf("%s/v1/model?channel=%d&sensor=%d", base, int(ch), int(sensor.KindRTLSDR))
}

// bresenham reports whether step n of a stream taking share of its steps
// is a hit, spreading hits evenly: exactly floor(n·share) of the first n.
func bresenham(n uint64, share float64) bool {
	return math.Floor(float64(n+1)*share) > math.Floor(float64(n)*share)
}

// ingestStack is one booted single server with its bootstrap data.
type ingestStack struct {
	camp  *Campaign
	dir   string
	srv   *dbserver.Server
	ts    *httptest.Server
	acked int // readings the store must hold
	pool  []payload
}

func (s *ingestStack) close() error {
	err := s.srv.Close()
	s.ts.Close()
	return err
}

func setupIngest(o Options, i int, tr *Tracer, fs wal.FS, gen *Generator) (*ingestStack, error) {
	camp, err := NewCampaign(ingestChannels)
	if err != nil {
		return nil, err
	}
	dir, err := dataDir(o, "ingest", i)
	if err != nil {
		return nil, err
	}
	srv, err := dbserver.Open(dbConfig(dir, fs))
	if err != nil {
		return nil, err
	}
	s := &ingestStack{camp: camp, dir: dir, srv: srv}
	var all []dataset.Reading
	for _, ch := range ingestChannels {
		all = append(all, camp.Readings[ch]...)
	}
	if err := srv.Bootstrap(all); err != nil {
		srv.Close()
		return nil, err
	}
	s.acked = len(all)
	s.ts = httptest.NewServer(tr.Handler("server", srv.Handler()))
	if s.pool, err = buildPayloads(rand.New(rand.NewSource(o.Seed)), camp, ingestChannels, ingestBatch); err != nil {
		s.close()
		return nil, err
	}
	// Warm-up: every request kind once per pool entry's worth of traffic.
	ctx := context.Background()
	poller := newModelPoller()
	for j := 0; j < 64; j++ {
		p := s.pool[j%len(s.pool)]
		if !upload(ctx, gen.Client, s.ts.URL, p, j%5 == 0) {
			s.close()
			return nil, fmt.Errorf("ingest warm-up upload failed")
		}
		s.acked += p.n
		if j%8 == 0 && !poller.Poll(ctx, gen.Client, modelURL(s.ts.URL, ingestChannels[j%2]), j%16 == 0) {
			s.close()
			return nil, fmt.Errorf("ingest warm-up model poll failed")
		}
	}
	return s, nil
}

func runIngest(o Options, tr *Tracer) (*Result, error) {
	res := &Result{Layers: map[string]float64{}}
	walFS, walStats := NewWALFS(tr)
	gen := NewGenerator(nproc(), tr)
	defer gen.Close()

	st, setupS, err := setUp(
		func(i int) (*ingestStack, error) { return setupIngest(o, i, tr, walFS, gen) },
		func(s *ingestStack) error { defer os.RemoveAll(s.dir); return s.close() })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(st.dir)
	res.add(val("setup_s", setupS, "s"))

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var upAll, model, ph2 Samples
	poller := newModelPoller()
	var acked atomic.Int64
	pollShare := float64(ingestPollRate) / (ingestRate/ingestBatch + ingestPollRate)
	classify := func(n uint64) int { // 0 binary upload, 1 JSON upload, 2 model poll
		if bresenham(n, pollShare) {
			return 2
		}
		u := n - uint64(math.Floor(float64(n)*pollShare))
		if bresenham(u, ingestJSONShare) {
			return 1
		}
		return 0
	}
	var seq, polls atomic.Uint64
	var ran [3]atomic.Int64
	loop := &Loop{Rate: ingestRate/ingestBatch + ingestPollRate, Workers: nproc()}

	runtime0 := telemetry.ReadRuntime()
	walStats.on.Store(true)
	measureStart := time.Now()
	loop.Run(ctx, o.Duration(), func(scheduled time.Time) {
		n := seq.Add(1) - 1
		class := classify(n)
		ran[class].Add(1)
		if class == 2 {
			k := polls.Add(1) - 1
			ok := poller.Poll(ctx, gen.Client, modelURL(st.ts.URL, ingestChannels[k%2]), k%4 == 3)
			if !ok {
				model.Miss(1)
				return
			}
			model.Observe(time.Since(scheduled))
			return
		}
		p := st.pool[(n*7919+uint64(o.Seed))%uint64(len(st.pool))]
		if !upload(ctx, gen.Client, st.ts.URL, p, class == 1) {
			upAll.Miss(1)
			return
		}
		acked.Add(int64(p.n))
		upAll.Observe(time.Since(scheduled))
	})
	// Sends the schedule dropped count as misses of the class they would
	// have had.
	var want [3]int64
	for n := uint64(0); n < loop.Stats.Scheduled; n++ {
		want[classify(n)]++
	}
	for c, tk := range []*Samples{&upAll, &upAll, &model} {
		if miss := want[c] - ran[c].Load(); miss > 0 {
			tk.Miss(int(miss))
		}
	}

	// Phase 2: a fixed count of single-cell binary frames, back to back
	// on nproc connections.
	var next, ph2Acked atomic.Int64
	frames := int64(ingestPhase2 / ingestBatch)
	ph2Start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= frames || ctx.Err() != nil {
					return
				}
				p := st.pool[(uint64(i)*104729+uint64(o.Seed))%uint64(len(st.pool))]
				start := time.Now()
				if !upload(ctx, gen.Client, st.ts.URL, p, false) {
					ph2.Miss(1)
					continue
				}
				ph2.Observe(time.Since(start))
				ph2Acked.Add(int64(p.n))
			}
		}()
	}
	wg.Wait()
	ph2Elapsed := time.Since(ph2Start)
	measured := time.Since(measureStart)
	walStats.on.Store(false)
	ops := int(loop.Stats.Completed) + ph2.Len()
	runtimeLayers(runtime0, ops, res.Layers)

	res.add(
		val("ingest_rd_per_s", float64(ph2Acked.Load())/ph2Elapsed.Seconds(), "readings/s"),
		pctWindowed("upload_p50_ms", &upAll, 0.5, "ms"), pctWindowed("upload_p90_ms", &upAll, 0.9, "ms"),
		pctWindowed("model_p50_ms", &model, 0.5, "ms"), pctWindowed("model_p90_ms", &model, 0.9, "ms"),
		pctWindowed("ingest_upload_p50_ms", &ph2, 0.5, "ms"), pctWindowed("ingest_upload_p90_ms", &ph2, 0.9, "ms"),
	)
	res.Gated = map[string]string{
		"main_p50_ms": "upload_p50_ms", "main_p90_ms": "upload_p90_ms",
		"aux_p50_ms": "model_p50_ms", "aux_p90_ms": "model_p90_ms",
	}
	diag(res, "upload", &upAll)
	diag(res, "ingest_upload", &ph2)
	res.Attempted = int(loop.Stats.Scheduled) + int(frames)
	res.Failed = countMisses(&upAll, &model, &ph2)
	failedShare(res)
	loopLayers(res, loop)

	res.check("loadgen.inflight_within_nproc", gen.MaxInflight() <= nproc() && gen.MaxConns() <= nproc(),
		"at most %d requests and %d connections in flight; nproc %d", gen.MaxInflight(), gen.MaxConns(), nproc())
	// Correctness: the store holds exactly the acknowledged readings, and
	// so does the store recovered from the WAL after Close.
	total := st.acked + int(acked.Load()+ph2Acked.Load())
	size := 0
	for _, ch := range ingestChannels {
		size += st.srv.StoreSize(ch, sensor.KindRTLSDR)
	}
	res.check("ingest.acked_equals_store", size == total, "store %d readings, acked %d", size, total)
	if tr != nil {
		cacheRatio(gen.Client, []string{st.ts.URL}, res)
	}
	// The serving process's peak, before recovery opens a second copy.
	res.add(val("peak_rss_mb", peakRSSMB(), "MB"))
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("close server: %w", err)
	}
	// Recover as a restarted process would: the old server's memory is
	// gone, and so is a background compaction Close does not wait for;
	// let that finish before a second server opens the directory.
	st.srv, st.ts = nil, nil
	runtime.GC()
	if err := waitQuiet(st.dir, 30*time.Second); err != nil {
		return nil, err
	}
	start := time.Now()
	srv, err := dbserver.Open(dbConfig(st.dir, nil))
	if err != nil {
		res.check("ingest.wal_recovers_acked", false, "reopen: %v", err)
	} else {
		res.Layers["wal.replay_s"] = time.Since(start).Seconds()
		got := 0
		for _, ch := range ingestChannels {
			got += srv.StoreSize(ch, sensor.KindRTLSDR)
		}
		res.check("ingest.wal_recovers_acked", got == total, "recovered %d readings, acked %d", got, total)
		if err := srv.Close(); err != nil {
			return nil, err
		}
	}

	if tr != nil {
		walLayers(res.Layers, walStats, measured, int(acked.Load()+ph2Acked.Load()))
		replayUploads(ctx, o, res.Layers, st.camp, st.pool, tr)
		replayModels(res.Layers, poller, tr)
	}
	return res, nil
}

// diag prints the tail percentiles that are diagnostics only: too noisy
// to gate at any bound the benchmark can hold.
func diag(res *Result, name string, s *Samples) {
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"p99", 0.99}, {"p999", 0.999}} {
		m := pct(name+"_"+q.suffix+"_ms", s, q.q, "ms")
		res.note("diagnostic %s", m)
	}
}

func countMisses(ss ...*Samples) int {
	n := 0
	for _, s := range ss {
		n += s.Misses()
	}
	return n
}

func failedShare(res *Result) {
	if res.Attempted > 0 {
		res.add(val("failed_share", float64(res.Failed)/float64(res.Attempted), "share"))
	}
}

func loopLayers(res *Result, loops ...*Loop) {
	var late, sched float64
	var lat Samples
	for _, l := range loops {
		late += float64(l.Stats.Late)
		sched += float64(l.Stats.Scheduled)
		for _, v := range l.Lateness.Sorted() {
			lat.Add(v)
		}
	}
	if sched > 0 {
		res.Layers["loadgen.late_share"] = late / sched
	}
	if v, ok := Quantile(lat.Sorted(), 0.9); ok {
		res.Layers["loadgen.lateness_p90_us"] = v
	}
	res.note("loadgen.late_share %.4f of %d scheduled sends (late = started >%v behind schedule)",
		res.Layers["loadgen.late_share"], int(sched), loopLateThreshold)
}

// walLayers fills the wal.* rows from the timing filesystem.
func walLayers(layers map[string]float64, st *WALStats, measured time.Duration, userReadings int) {
	layers["wal.fsyncs_per_s"] = float64(st.fsync.Len()) / measured.Seconds()
	if v, ok := Quantile(st.fsync.Sorted(), 0.9); ok {
		layers["wal.fsync_p90_us"] = v
	}
	if userReadings > 0 {
		layers["wal.write_bytes_per_user_byte"] = float64(st.writeBytes.Load()) / float64(userReadings*core.ReadingWireSize)
	}
	layers["wal.snapshots"] = float64(st.snapshots.Load())
	layers["wal.snapshot_write_ms"] = Median(st.snapWrite.Sorted())
}

// cacheRatio sums the encoded-model cache outcomes off each server's
// /metrics exposition into dbserver.model_cache_hit_ratio.
func cacheRatio(c *http.Client, bases []string, res *Result) {
	var hit, miss float64
	for _, base := range bases {
		h, m, err := scrapeCache(c, base)
		if err != nil {
			res.note("cache scrape %s: %v", base, err)
			continue
		}
		hit, miss = hit+h, miss+m
	}
	if hit+miss > 0 {
		res.Layers["dbserver.model_cache_hit_ratio"] = hit / (hit + miss)
	}
	res.note("model cache: %.0f hits, %.0f misses", hit, miss)
}

func scrapeCache(c *http.Client, base string) (hit, miss float64, err error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "waldo_dbserver_model_cache_total{") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.Contains(line, `outcome="hit"`):
			hit += v
		case strings.Contains(line, `outcome="miss"`):
			miss += v
		}
	}
	return hit, miss, sc.Err()
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// waitQuiet waits until no snapshot is being written under dir and its
// file set has stopped changing.
func waitQuiet(dir string, limit time.Duration) error {
	list := func() (string, bool) {
		var b strings.Builder
		busy := false
		filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // a vanished file just changes the listing
			if err != nil || d.IsDir() {
				return nil
			}
			if d.Name() == snapshotTmp {
				busy = true
			}
			if info, err := d.Info(); err == nil {
				fmt.Fprintf(&b, "%s %d\n", path, info.Size())
			}
			return nil
		})
		return b.String(), busy
	}
	prev, _ := list()
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); {
		time.Sleep(100 * time.Millisecond)
		cur, busy := list()
		if !busy && cur == prev {
			return nil
		}
		prev = cur
	}
	return fmt.Errorf("data dir %s still changing after %v", dir, limit)
}
