package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/telemetry"
	"github.com/wsdetect/waldo/internal/wal"
)

// Span is one timed call into a layer, recorded from outside the program:
// around a client request, a server handler, a WAL file operation, a radio
// capture, or a replayed public function.
type Span struct {
	Name string `json:"name"`
	// Req is the request's trace ID (X-Waldo-Trace); spans of one
	// request share it.
	Req    string `json:"req,omitempty"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Covered is time inside the span spent in calls too numerous to
	// keep as spans of their own (a scan's radio captures).
	Covered int64 `json:"covered_ns,omitempty"`
	// Self is End-Start minus the time children cover; set by Analyze.
	Self int64 `json:"self_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is a
// valid no-op, so untraced runs pay one nil check per wrapper.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// Add records s, assigning its ID.
func (t *Tracer) Add(s Span) uint64 {
	if t == nil {
		return 0
	}
	s.ID = t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// Time records a span named name covering fn.
func (t *Tracer) Time(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if t != nil {
		t.Add(Span{Name: name, Start: t.ns(start), End: t.ns(end)})
	}
	return end.Sub(start)
}

// MintRequest stamps h with a fresh X-Waldo-Trace header and returns the
// trace ID every server span of the request will carry.
func (t *Tracer) MintRequest(h http.Header) string {
	var sc telemetry.SpanContext
	n := t.ids.Add(1)
	binary.BigEndian.PutUint64(sc.Trace[:8], uint64(t.epoch.UnixNano()))
	binary.BigEndian.PutUint64(sc.Trace[8:], n)
	binary.BigEndian.PutUint64(sc.Span[:], n)
	sc.Sampled = true
	v := sc.Header()
	h.Set(telemetry.TraceHeader, v)
	return traceID(v)
}

// traceID extracts the trace-ID field of an X-Waldo-Trace value.
func traceID(v string) string {
	if len(v) != 55 {
		return ""
	}
	return v[3:35]
}

// Handler wraps a server handler so every request records a span named
// node/class, tied to its request by the propagated trace header.
func (t *Tracer) Handler(node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.Add(Span{
			Name:  node + "/" + classOf(r.URL.Path),
			Req:   traceID(r.Header.Get(telemetry.TraceHeader)),
			Start: t.ns(start), End: t.ns(time.Now()),
		})
	})
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// tier orders the spans of one request from the outside in.
func tier(name string) int {
	switch {
	case strings.HasPrefix(name, "client/"):
		return 0
	case strings.HasPrefix(name, "gateway/"), strings.HasPrefix(name, "server/"):
		return 1
	}
	return 2
}

// Analyze links each request's spans into a tree (client → gateway or
// server → shard legs) and fills every span's Self time: its duration
// minus the union of its children's intervals and its Covered time.
func Analyze(spans []Span) []Span {
	byReq := make(map[string][]int)
	for i, s := range spans {
		if s.Req != "" {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	children := make(map[int][]int)
	for _, idx := range byReq {
		sort.Slice(idx, func(a, b int) bool { return tier(spans[idx[a]].Name) < tier(spans[idx[b]].Name) })
		for _, i := range idx {
			ti := tier(spans[i].Name)
			// Parent: the nearest outer-tier span of the request.
			best := -1
			for _, j := range idx {
				if tj := tier(spans[j].Name); tj < ti && (best < 0 || tj > tier(spans[best].Name)) {
					best = j
				}
			}
			if best >= 0 {
				spans[i].Parent = spans[best].ID
				children[best] = append(children[best], i)
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		var iv [][2]int64
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, end int64
		for _, v := range iv {
			if v[0] > end {
				end = v[0]
			}
			if v[1] > end {
				covered += v[1] - end
				end = v[1]
			}
		}
		s.Self = s.End - s.Start - covered - s.Covered
	}
	return spans
}

// Dump writes spans as JSON lines to path.
func Dump(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WALStats counts what the WAL asked of the filesystem while on.
type WALStats struct {
	on         atomic.Bool
	writeBytes atomic.Int64
	snapshots  atomic.Int64
	fsync      Samples // µs per fsync
	snapWrite  Samples // ms from snapshot temp-file create to rename
	mu         sync.Mutex
	snapStart  map[string]time.Time
}

// timedFS is the wal.FS every server of a traced run persists through.
type timedFS struct {
	wal.FS
	st *WALStats
	t  *Tracer
}

const snapshotTmp = "snapshot.bin.tmp"

func (f timedFS) OpenAppend(path string) (wal.File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, fs: f}, nil
}

func (f timedFS) Create(path string) (wal.File, error) {
	if filepath.Base(path) == snapshotTmp {
		f.st.mu.Lock()
		f.st.snapStart[path] = time.Now()
		f.st.mu.Unlock()
	}
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, fs: f}, nil
}

func (f timedFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	if filepath.Base(oldpath) == snapshotTmp {
		f.st.mu.Lock()
		start, ok := f.st.snapStart[oldpath]
		delete(f.st.snapStart, oldpath)
		f.st.mu.Unlock()
		if ok && err == nil && f.st.on.Load() {
			end := time.Now()
			f.st.snapshots.Add(1)
			f.st.snapWrite.Observe(end.Sub(start))
			f.t.Add(Span{Name: "wal/snapshot", Start: f.t.ns(start), End: f.t.ns(end)})
		}
	}
	return err
}

type timedFile struct {
	wal.File
	fs timedFS
}

func (f timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.fs.st.on.Load() {
		f.fs.st.writeBytes.Add(int64(n))
	}
	return n, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	if f.fs.st.on.Load() {
		end := time.Now()
		f.fs.st.fsync.Add(float64(end.Sub(start)) / float64(time.Microsecond))
		f.fs.t.Add(Span{Name: "wal/fsync", Start: f.fs.t.ns(start), End: f.fs.t.ns(end)})
	}
	return err
}

// NewWALFS wraps the real filesystem with the WAL counters. It returns
// nil, the real filesystem, when the run is not traced.
func NewWALFS(t *Tracer) (wal.FS, *WALStats) {
	st := &WALStats{snapStart: make(map[string]time.Time)}
	if t == nil {
		return nil, st
	}
	return timedFS{FS: wal.OSFS{}, st: st, t: t}, st
}
