package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Layer is one per-layer metric of the traced pass and the end-to-end
// metric it should move, on the workload where it should move it.
type Layer struct {
	Name, Unit, Better string
	Moves, Workload    string
}

// Layers lists every per-layer metric. A workload that bypasses a layer
// reports it as 0; the table marks it as bypassed.
var Layers = []Layer{
	{"loadgen.late_share", "share", "lower", "every open-loop p50", "ingest, fleet"},
	{"loadgen.lateness_p90_us", "us", "lower", "every open-loop p50", "ingest, fleet"},
	{"transport.unattributed_p50_us", "us", "lower", "upload_p50_ms / availability_p50_ms", "ingest / fleet"},
	{"transport.unattributed_upload_p50_us", "us", "lower", "upload_p50_ms", "ingest, fleet"},
	{"transport.unattributed_upload_json_p50_us", "us", "lower", "upload_p50_ms", "ingest"},
	{"transport.unattributed_model_p50_us", "us", "lower", "model_p50_ms", "ingest, fleet"},
	{"transport.unattributed_availability_p50_us", "us", "lower", "availability_p50_ms", "fleet"},
	{"transport.unattributed_route_p50_us", "us", "lower", "route_p50_ms", "fleet"},
	{"transport.unattributed_retrain_p50_us", "us", "lower", "retrain_p50_ms", "fleet"},
	{"dbserver.upload_batch_p50_us", "us", "lower", "upload_*, ingest_rd_per_s", "ingest"},
	{"dbserver.upload_batch_p90_us", "us", "lower", "upload_*, ingest_rd_per_s", "ingest"},
	{"dbserver.readings_json_p50_us", "us", "lower", "upload_*", "ingest"},
	{"dbserver.model_p50_us", "us", "lower", "model_*", "ingest (hits), fleet (misses)"},
	{"dbserver.model_cache_hit_ratio", "share", "higher", "model_*", "ingest (hits), fleet (misses)"},
	{"dbserver.availability_p50_us", "us", "lower", "availability_p50_ms", "fleet"},
	{"dbserver.route_p50_us", "us", "lower", "route_p50_ms", "fleet"},
	{"dbserver.retrain_p50_ms", "ms", "lower", "retrain_* (slowest shard)", "fleet"},
	{"core.decode_frame_us", "us", "lower", "ingest_rd_per_s", "ingest"},
	{"core.submit_us", "us", "lower", "ingest_rd_per_s", "ingest"},
	{"core.submit_contended_us", "us", "lower", "ingest_rd_per_s (updater lock wait)", "ingest"},
	{"core.build_model_ms", "ms", "lower", "retrain_*, availability_churn_p90_ms, route_churn_p90_ms", "fleet"},
	{"core.encode_model_us", "us", "lower", "model_churn_p90_ms", "fleet"},
	{"core.decode_model_us", "us", "lower", "model_churn_p90_ms", "fleet"},
	{"core.model_bytes", "B", "lower", "model_churn_p90_ms", "fleet"},
	{"core.detector_offer_us", "us", "lower", "scan_cpu_p90_ms", "wsd_scan"},
	{"core.detector_decide_us", "us", "lower", "scan_cpu_p50_ms", "wsd_scan"},
	{"core.classify_us", "us", "lower", "scan_cpu_p50_ms", "wsd_scan"},
	{"dataset.label_ms", "ms", "lower", "retrain_p50_ms", "fleet"},
	{"wal.fsyncs_per_s", "1/s", "lower", "ingest_rd_per_s, upload_p90_ms", "ingest"},
	{"wal.fsync_p90_us", "us", "lower", "ingest_rd_per_s, upload_p90_ms", "ingest"},
	{"wal.write_bytes_per_user_byte", "B/B", "lower", "ingest_rd_per_s, upload_p90_ms", "ingest"},
	{"wal.snapshots", "count", "lower", "ingest_rd_per_s, upload_p90_ms", "ingest"},
	{"wal.snapshot_write_ms", "ms", "lower", "ingest_rd_per_s, upload_p90_ms", "ingest"},
	{"wal.replay_s", "s", "lower", "setup_s", "ingest"},
	{"geoindex.rebuild_ms", "ms", "lower", "availability_churn_p90_ms, route_churn_p90_ms", "fleet"},
	{"geoindex.rebuilds_per_retrain", "count", "lower", "availability_churn_p90_ms, route_churn_p90_ms", "fleet"},
	{"geoindex.lookup_us", "us", "lower", "availability_p50_ms", "fleet"},
	{"geoindex.sample_route_us", "us", "lower", "route_p50_ms", "fleet"},
	{"cluster.gateway_self_p50_us", "us", "lower", "upload/availability/route p50", "fleet"},
	{"cluster.legs_per_request", "count", "lower", "upload/availability/route p50", "fleet"},
	{"cluster.split_share", "share", "lower", "upload_p50_ms", "fleet"},
	{"cluster.repl_apply_p50_us", "us", "lower", "retrain_p90_ms", "fleet"},
	{"cluster.replication_lag_max", "count", "lower", "retrain_p90_ms", "fleet"},
	{"features.extract_us", "us", "lower", "scan_cpu_p50_ms", "wsd_scan"},
	{"client.captures_per_decision", "count", "lower", "scan_cpu_p90_ms", "wsd_scan"},
	{"client.capture_useful_share", "share", "higher", "scan_cpu_p90_ms", "wsd_scan"},
	{"client.converged_share", "share", "higher", "scan_cpu_p90_ms", "wsd_scan"},
	{"sensor.capture_us", "us", "lower", "none (simulator, excluded from scan_cpu_*)", "wsd_scan"},
	{"runtime.gc_cycles", "count", "lower", "upload_p90_ms, ingest_rd_per_s, peak_rss_mb / *_churn_p90_ms", "ingest / fleet"},
	{"runtime.gc_pause_p90_us", "us", "lower", "upload_p90_ms, ingest_rd_per_s / *_churn_p90_ms", "ingest / fleet"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "upload_p90_ms, peak_rss_mb", "ingest"},
}

// spanLayers derives the transport, dbserver and cluster rows from the
// analyzed spans of a server workload.
func spanLayers(spans []Span, res *Result) {
	kids := make(map[uint64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	unattr := map[string]*Samples{}
	server := map[string]*Samples{}
	perShardRetrain := map[string]*Samples{}
	var all, gwSelf, repl Samples
	var legs, gwReqs, uploads, splits float64
	get := func(m map[string]*Samples, k string) *Samples {
		if m[k] == nil {
			m[k] = &Samples{}
		}
		return m[k]
	}
	for i, s := range spans {
		node, class, _ := strings.Cut(s.Name, "/")
		switch {
		case node == "client":
			if len(kids[s.ID]) > 0 && class != "other" {
				get(unattr, class).Add(us(time.Duration(s.Self)))
				all.Add(us(time.Duration(s.Self)))
			}
		case node == "gateway":
			var slowest int64
			n := 0
			for _, k := range kids[s.ID] {
				n++
				slowest = max(slowest, spans[k].End-spans[k].Start)
			}
			if n > 0 {
				gwSelf.Add(us(time.Duration(s.End - s.Start - slowest)))
				legs += float64(n)
				gwReqs++
			}
			if class == "upload" {
				uploads++
				if n > 1 {
					splits++
				}
			}
		case class == "repl_apply":
			repl.Add(us(spans[i].Dur()))
		case strings.HasPrefix(node, "server") || strings.HasPrefix(node, "shard"):
			get(server, class).Add(us(s.Dur()))
			if class == "retrain" {
				get(perShardRetrain, node).Add(float64(s.Dur()) / float64(time.Millisecond))
			}
		}
	}
	med := func(s *Samples) float64 {
		if s == nil {
			return 0
		}
		return Median(s.Sorted())
	}
	res.Layers["transport.unattributed_p50_us"] = med(&all)
	for _, c := range []string{"upload", "upload_json", "model", "availability", "route", "retrain"} {
		res.Layers["transport.unattributed_"+c+"_p50_us"] = med(unattr[c])
	}
	res.Layers["dbserver.upload_batch_p50_us"] = med(server["upload"])
	if s := server["upload"]; s != nil {
		if v, ok := Quantile(s.Sorted(), 0.9); ok {
			res.Layers["dbserver.upload_batch_p90_us"] = v
		}
	}
	res.Layers["dbserver.readings_json_p50_us"] = med(server["upload_json"])
	res.Layers["dbserver.model_p50_us"] = med(server["model"])
	res.Layers["dbserver.availability_p50_us"] = med(server["availability"])
	res.Layers["dbserver.route_p50_us"] = med(server["route"])
	var shards []string
	for k := range perShardRetrain {
		shards = append(shards, k)
	}
	sort.Strings(shards)
	for _, k := range shards {
		v := med(perShardRetrain[k])
		res.note("dbserver.retrain_p50_ms %s %.3f ms", k, v)
		res.Layers["dbserver.retrain_p50_ms"] = max(res.Layers["dbserver.retrain_p50_ms"], v)
	}
	res.Layers["cluster.gateway_self_p50_us"] = med(&gwSelf)
	res.Layers["cluster.repl_apply_p50_us"] = med(&repl)
	if gwReqs > 0 {
		res.Layers["cluster.legs_per_request"] = legs / gwReqs
	}
	if uploads > 0 {
		res.Layers["cluster.split_share"] = splits / uploads
	}
}

// selfTable prints the median self time of every span name.
func selfTable(w io.Writer, spans []Span) {
	self := map[string]*Samples{}
	for _, s := range spans {
		if self[s.Name] == nil {
			self[s.Name] = &Samples{}
		}
		self[s.Name].Add(us(time.Duration(s.Self)))
	}
	var names []string
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# self time per span (median µs, count)\n")
	for _, k := range names {
		fmt.Fprintf(w, "span %-44s %12.1f us n=%d\n", k, Median(self[k].Sorted()), self[k].Len())
	}
}

// layerTable prints every per-layer metric beside the end-to-end metric
// and workload it should move.
func layerTable(w io.Writer, workload string, layers map[string]float64) {
	fmt.Fprintf(w, "# per-layer metrics (traced pass) → end-to-end metric it should move [workload]\n")
	for _, l := range Layers {
		v := layers[l.Name]
		mark := ""
		if v == 0 && !strings.Contains(l.Workload, workload) {
			mark = " (bypassed)"
		}
		fmt.Fprintf(w, "layer %-44s %14.6g %-6s → %s [%s]%s\n", l.Name, v, l.Unit, l.Moves, l.Workload, mark)
	}
}
