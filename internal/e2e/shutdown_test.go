package e2e

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/benchharness"
	"github.com/wsdetect/waldo/internal/client"
	"github.com/wsdetect/waldo/internal/cluster"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dbserver"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// TestClusterCloseMidLoadLeaksNoGoroutines is the graceful-shutdown
// gauntlet: a replicated cluster under open-loop upload load, with a
// client-side upload buffer and a parked WatchModelCtx long-poll, torn
// down in the middle of the load. Everything must unwind — parked
// watchers (server side and client side), replication shippers, the
// upload buffer's flusher — and the goroutine count must return to its
// pre-boot baseline.
func TestClusterCloseMidLoadLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	channels := []rfenv.Channel{46, 47}
	_, all, err := buildWorld(Config{Seed: 42, Samples: 120, Channels: channels})
	if err != nil {
		t.Fatal(err)
	}
	seedLoc := map[rfenv.Channel]geo.Point{}
	for _, r := range all {
		if _, ok := seedLoc[r.Channel]; !ok {
			seedLoc[r.Channel] = r.Loc
		}
	}

	// Two shards, each a primary shipping to one replica, behind the
	// gateway; replicas boot first so their apply endpoints exist before
	// a primary's shipper starts. Every node has a WAL that compacts
	// often, so background snapshots are in flight when Close lands.
	var nodes []*cluster.Node
	var servers []*httptest.Server
	var specs []cluster.ShardSpec
	root := t.TempDir()
	dbCfg := func(name string) dbserver.Config {
		return dbserver.Config{
			Constructor:   core.ConstructorConfig{Classifier: core.KindNB, Seed: 42},
			DataDir:       filepath.Join(root, name),
			SnapshotEvery: 64,
		}
	}
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("shard%d", i)
		rep, err := cluster.OpenNode(cluster.NodeConfig{ID: id + "-replica", DB: dbCfg(id + "-replica")})
		if err != nil {
			t.Fatal(err)
		}
		repTS := httptest.NewServer(rep.Handler())
		prim, err := cluster.OpenNode(cluster.NodeConfig{ID: id, DB: dbCfg(id), ReplicaURLs: []string{repTS.URL}})
		if err != nil {
			t.Fatal(err)
		}
		primTS := httptest.NewServer(prim.Handler())
		nodes = append(nodes, rep, prim)
		servers = append(servers, repTS, primTS)
		specs = append(specs, cluster.ShardSpec{ID: id, URLs: []string{primTS.URL, repTS.URL}})
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Shards: specs})
	if err != nil {
		t.Fatal(err)
	}
	gwTS := httptest.NewServer(gw.Handler())
	servers = append(servers, gwTS)
	var closeOnce sync.Once
	closeCluster := func() {
		closeOnce.Do(func() {
			// Servers first: dbserver.Close wakes every parked watcher,
			// so the listener drains below cannot stall on a long-poll.
			for _, n := range nodes {
				n.Close()
			}
			gw.Close()
			for i := len(servers) - 1; i >= 0; i-- {
				servers[i].Close()
			}
		})
	}
	defer closeCluster()

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}, Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	post := func(url, contentType string, body []byte, header map[string]string) (int, error) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", contentType)
		for k, v := range header {
			req.Header.Set(k, v)
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	// Bootstrap through the gateway's routed upload path, then a
	// broadcast retrain per channel trains whatever slice each shard
	// holds.
	frame, err := core.EncodeBatchFrame(all)
	if err != nil {
		t.Fatal(err)
	}
	hdr := map[string]string{dbserver.CISpanHeader: "0.2"}
	if code, err := post(gwTS.URL+"/v1/upload/batch", "application/octet-stream", frame, hdr); err != nil || code != http.StatusNoContent {
		t.Fatalf("bootstrap upload = %d, %v", code, err)
	}
	for _, ch := range channels {
		url := fmt.Sprintf("%s/v1/retrain?channel=%d&sensor=%d", gwTS.URL, int(ch), int(sensor.KindRTLSDR))
		if code, err := post(url, "", nil, nil); err != nil || code != http.StatusOK {
			t.Fatalf("broadcast retrain ch%d = %d, %v", int(ch), code, err)
		}
	}

	// Client-side moving parts riding on the same cluster: an upload
	// buffer with a background flusher and a parked model watch.
	c, err := client.NewWithConfig(gwTS.URL, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetLocationHint(seedLoc[47])
	buf := c.NewUploadBuffer(client.BufferConfig{FlushSize: 8})
	watchCtx, stopWatch := context.WithCancel(context.Background())
	var clientSide sync.WaitGroup
	clientSide.Add(1)
	go func() {
		defer clientSide.Done()
		for watchCtx.Err() == nil {
			c.WatchModelCtx(watchCtx, 47, sensor.KindRTLSDR) //nolint:errcheck // cancellation path
		}
	}()
	for i := 0; i < 4; i++ {
		buf.Add(core.UploadBatch{CISpanDB: 0.2, Readings: []dataset.Reading{ //nolint:errcheck
			{Seq: i, Loc: seedLoc[46], Channel: 46, Sensor: sensor.KindRTLSDR},
		}})
	}

	// Open-loop upload load: 16-reading binary frames cycling through
	// the campaign, some of them spanning shards.
	var frames [][]byte
	for i := 0; i+16 <= len(all) && len(frames) < 16; i += 16 {
		f, err := core.EncodeBatchFrame(all[i : i+16])
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	var acked, seq atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		benchharness.RunOpenLoop(context.Background(),
			benchharness.OpenLoopConfig{Rate: 125, Workers: 8, Duration: 1500 * time.Millisecond},
			func(int, time.Time) {
				f := frames[seq.Add(1)%uint64(len(frames))]
				if code, err := post(gwTS.URL+"/v1/upload/batch", "application/octet-stream", f, hdr); err == nil && code == http.StatusNoContent {
					acked.Add(1)
				}
			})
	}()

	// Tear the cluster down while the load is mid-flight. Close must
	// not deadlock on a parked long-poll and must stop every shipper.
	time.Sleep(400 * time.Millisecond)
	closeCluster()
	<-done
	if acked.Load() == 0 {
		t.Error("no upload completed before the mid-load close")
	}

	stopWatch()
	clientSide.Wait()
	buf.Close() //nolint:errcheck // flush failures expected: the cluster is gone
	hc.CloseIdleConnections()

	// The runtime parks worker goroutines lazily; poll instead of
	// asserting an instantaneous count. The slack is one goroutine: a
	// clean shutdown returns to the baseline exactly, while the two
	// primaries' replication shippers alone, left running, would be +2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+1 {
			return
		}
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after mid-load close: baseline %d, now %d\n%s",
				baseline, n, stacks[:runtime.Stack(stacks, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
