package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wsdetect/waldo/internal/benchharness"
)

// Generator is the benchmark's client side: one HTTP client whose
// transport caps connections per host at limit, and which counts
// requests in flight and open connections so a run can prove it never
// offered more concurrency than the machine has cores.
type Generator struct {
	Client *http.Client
	tracer *Tracer

	inflight, maxInflight atomic.Int64
	conns, maxConns       atomic.Int64
}

// NewGenerator builds a generator allowed limit concurrent requests and
// connections. A non-nil tracer records one client span per request.
func NewGenerator(limit int, tracer *Tracer) *Generator {
	g := &Generator{tracer: tracer}
	var dialer net.Dialer
	base := &http.Transport{
		MaxConnsPerHost:     limit,
		MaxIdleConnsPerHost: limit,
		MaxIdleConns:        limit,
		IdleConnTimeout:     30 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			raise(&g.conns, &g.maxConns)
			return &countedConn{Conn: c, n: &g.conns}, nil
		},
	}
	g.Client = &http.Client{Transport: &genTransport{g: g, base: base}, Timeout: 10 * time.Second}
	return g
}

// Close drops idle connections.
func (g *Generator) Close() { g.Client.CloseIdleConnections() }

// MaxInflight is the most requests that were ever in flight at once.
func (g *Generator) MaxInflight() int { return int(g.maxInflight.Load()) }

// MaxConns is the most connections that were ever open at once.
func (g *Generator) MaxConns() int { return int(g.maxConns.Load()) }

func raise(cur, peak *atomic.Int64) {
	n := cur.Add(1)
	for {
		p := peak.Load()
		if n <= p || peak.CompareAndSwap(p, n) {
			return
		}
	}
}

type countedConn struct {
	net.Conn
	n    *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.n.Add(-1) })
	return c.Conn.Close()
}

// genTransport counts a request as in flight from RoundTrip until its
// response body is closed, and records the client span when traced.
type genTransport struct {
	g    *Generator
	base http.RoundTripper
}

func (t *genTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	g := t.g
	raise(&g.inflight, &g.maxInflight)
	var req0 string
	start := time.Now()
	if g.tracer != nil {
		req = req.Clone(req.Context())
		req0 = g.tracer.MintRequest(req.Header)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		g.inflight.Add(-1)
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, done: func() {
		g.inflight.Add(-1)
		if g.tracer != nil {
			g.tracer.Add(Span{Name: "client/" + classOf(req.URL.Path), Req: req0, Start: g.tracer.ns(start), End: g.tracer.ns(time.Now())})
		}
	}}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// drain reads and closes a response body so its connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
	resp.Body.Close()
}

// classOf names the request class of a path, the unit every per-class
// row is reported in.
func classOf(path string) string {
	switch path {
	case "/v1/upload/batch":
		return "upload"
	case "/v1/readings":
		return "upload_json"
	case "/v1/model":
		return "model"
	case "/v1/availability":
		return "availability"
	case "/v1/route":
		return "route"
	case "/v1/retrain":
		return "retrain"
	case "/v1/repl/apply":
		return "repl_apply"
	}
	return "other"
}

// loopLateThreshold classifies an open-loop send as late when it starts
// this long after its scheduled time.
const loopLateThreshold = time.Millisecond

// Loop is one open-loop stream: a fixed-rate schedule drained by a
// bounded worker pool (benchharness.RunOpenLoop). Each op is timed from
// its scheduled send, so a stall shows as latency on every op behind it.
type Loop struct {
	Rate    float64
	Workers int
	// Stats is filled by Run.
	Stats benchharness.OpenLoopStats
	// Lateness holds each send's start delay behind its schedule, in µs.
	Lateness Samples
}

// Run drives op for d. The backlog holds two seconds of schedule, so a
// GC or compaction stall of that length shows as latency, not as drops.
func (l *Loop) Run(ctx context.Context, d time.Duration, op func(scheduled time.Time)) {
	backlog := int(2 * l.Rate)
	if backlog < 64 {
		backlog = 64
	}
	l.Stats = benchharness.RunOpenLoop(ctx, benchharness.OpenLoopConfig{
		Rate:          l.Rate,
		Workers:       l.Workers,
		Duration:      d,
		MaxBacklog:    backlog,
		LateThreshold: loopLateThreshold,
	}, func(_ int, scheduled time.Time) {
		l.Lateness.Add(float64(time.Since(scheduled)) / float64(time.Microsecond))
		op(scheduled)
	})
}
