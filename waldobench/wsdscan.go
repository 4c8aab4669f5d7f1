package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"github.com/wsdetect/waldo/internal/client"
	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// wsd_scan sizes: seeded scans until the run ends, one device in four
// moving at 15 m/s (Fig. 17/18 settings). The decisions of the first
// digestScans scans are digested; the first rescanScans are scanned again
// at the end of the run and must decide the same.
const (
	digestScans  = 64
	rescanScans  = 8
	mobileEvery  = 4
	mobileMPS    = 15
	scanAlphaDB  = 0.5
	scanMaxKeep  = 128
	recordStream = 2 // channels of a mobile scan whose captures the traced pass keeps
	recordMobile = 4 // mobile scans whose captures the traced pass keeps
)

// Fig. 18's detector: α = 0.5 dB, at most 128 readings kept.
var scanDetector = core.DetectorConfig{AlphaDB: scanAlphaDB, MaxReadings: scanMaxKeep}

// timingRadio wraps a device's radio and totals the time spent inside
// Capture, which is simulator work, not device CPU.
type timingRadio struct {
	client.Radio
	busy     time.Duration // wall time inside Capture
	busyCPU  time.Duration // thread CPU time inside Capture
	captures int
	keep     bool
	obs      []sensor.Observation
}

func (r *timingRadio) Capture(ch rfenv.Channel) (sensor.Observation, error) {
	start, cpu := time.Now(), threadCPU()
	obs, err := r.Radio.Capture(ch)
	r.busyCPU += threadCPU() - cpu
	d := time.Since(start)
	r.busy += d
	r.captures++
	if r.keep {
		r.obs = append(r.obs, obs)
	}
	return obs, err
}

// scanSpec is one planned scan: where, and whether the device moves.
type scanSpec struct {
	loc     geo.Point
	mobile  bool
	heading float64
}

// wsdStack is the device side: models as downloaded and the calibrated
// radio front end.
type wsdStack struct {
	env    *rfenv.Environment
	models map[rfenv.Channel]*core.Model
	bodies [][]byte
	dev    *sensor.Device
	seed   int64
}

// spec is scan k of the seed's plan.
func (s *wsdStack) spec(k int) scanSpec {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(k)))
	return scanSpec{
		loc:     rfenv.MetroCenter.Offset(rng.Float64()*360, 500+rng.Float64()*12000),
		mobile:  k%mobileEvery == mobileEvery-1,
		heading: rng.Float64() * 360,
	}
}

func setupWSD(o Options) (*wsdStack, error) {
	camp, err := NewCampaign(rfenv.EvalChannels)
	if err != nil {
		return nil, err
	}
	s := &wsdStack{env: camp.Env, models: make(map[rfenv.Channel]*core.Model), seed: o.Seed}
	for _, ch := range rfenv.EvalChannels {
		rs := camp.Readings[ch]
		labels, err := dataset.LabelReadings(rs, dataset.LabelConfig{})
		if err != nil {
			return nil, err
		}
		m, err := core.BuildModel(rs, labels, core.ConstructorConfig{
			ClusterK: 3, Classifier: core.KindSVM, Features: features.SetLocationRSSCFT, Seed: campaignSeed,
		})
		if err != nil {
			return nil, fmt.Errorf("model for %v: %w", ch, err)
		}
		// The device holds the model as it arrives over the wire.
		var buf bytes.Buffer
		if err := core.EncodeModel(&buf, m); err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, buf.Bytes())
		if s.models[ch], err = core.DecodeModel(bytes.NewReader(buf.Bytes())); err != nil {
			return nil, err
		}
	}
	s.dev = sensor.NewDevice(sensor.RTLSDR())
	if err := sensor.CalibrateAndInstall(s.dev, rand.New(rand.NewSource(campaignSeed)), sensor.CalibrationConfig{}); err != nil {
		return nil, err
	}
	// Warm-up: one stationary scan.
	_, err = s.scan(0, nil, nil)
	return s, err
}

// scanOut is one scan's measured cost and decisions.
type scanOut struct {
	// cpu is the scan's thread CPU time outside the radio; wall is its
	// wall time outside the radio; cpuSelf is the WSD's own CPUTime.
	cpu, wall, cpuSelf time.Duration
	capture            time.Duration // wall time inside the radio
	decisions          []core.Decision
	captures           []int
	truthAgree         int
	harmful            int // Safe decisions where the channel is decodable
	streams            []keptStream
}

// keptStream is one channel's captures, kept for the traced replay.
type keptStream struct {
	ch  rfenv.Channel
	loc geo.Point
	obs []sensor.Observation
}

// scan runs scan k of the plan: seven channels, each on its own seeded
// radio. digest, when set, absorbs the decisions.
func (s *wsdStack) scan(k int, digest io.Writer, keep func(ch int) bool) (scanOut, error) {
	sp := s.spec(k)
	var out scanOut
	for ci, ch := range rfenv.EvalChannels {
		speed := 0.0
		if sp.mobile {
			speed = mobileMPS
		}
		sim := &client.SimRadio{
			Env: s.env, Device: s.dev, SpeedMPS: speed, HeadingDeg: sp.heading,
			Rng: rand.New(rand.NewSource(s.seed*1_000_003 + int64(k)*101 + int64(ch))),
		}
		sim.SetPosition(sp.loc)
		radio := &timingRadio{Radio: sim, keep: keep != nil && keep(ci)}
		wsd := &client.WSD{Radio: radio, Models: s.models, Detector: scanDetector}
		start, cpu := time.Now(), threadCPU()
		cs, err := wsd.SenseChannel(ch, sp.loc)
		cpu = threadCPU() - cpu
		wall := time.Since(start)
		if err != nil {
			return out, err
		}
		out.cpu += cpu - radio.busyCPU
		out.wall += wall - radio.busy
		out.capture += radio.busy
		out.cpuSelf += cs.CPUTime
		out.decisions = append(out.decisions, cs.Decision)
		out.captures = append(out.captures, radio.captures)
		decodable := s.env.DecodableAt(ch, sp.loc)
		if (cs.Decision.Label == dataset.LabelNotSafe) == decodable {
			out.truthAgree++
		}
		if cs.Decision.Label == dataset.LabelSafe && decodable {
			out.harmful++
		}
		if radio.keep {
			out.streams = append(out.streams, keptStream{ch: ch, loc: sp.loc, obs: radio.obs})
		}
		if digest != nil {
			fmt.Fprintf(digest, "%d:%d:%d:%t:%d:%d;", k, int(ch), int(cs.Decision.Label),
				cs.Decision.Converged, cs.Decision.ReadingsUsed, radio.captures)
		}
	}
	return out, nil
}

func runWSDScan(o Options, tr *Tracer) (*Result, error) {
	res := &Result{Layers: map[string]float64{}}
	st, setupS, err := setUp(func(int) (*wsdStack, error) { return setupWSD(o) }, nil)
	if err != nil {
		return nil, err
	}
	res.add(val("setup_s", setupS, "s"))

	var all, stationary, mobile Samples
	var decisions, converged, captures, kept, agree, harmful, safe int
	var cpuOurs, wallOurs, cpuWSD, captureWall time.Duration
	// Scans run on one locked thread so its CPU clock is theirs alone.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	digest, head := sha256.New(), sha256.New()
	runtime0 := telemetry.ReadRuntime()
	deadline := time.Now().Add(o.Duration())
	scans := 0
	for k := 0; time.Now().Before(deadline); k++ {
		var h io.Writer
		switch {
		case k < rescanScans:
			h = io.MultiWriter(digest, head)
		case k < digestScans:
			h = digest
		}
		start := time.Now()
		out, err := st.scan(k, h, nil)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.Add(Span{Name: "wsd/scan", Start: tr.ns(start), End: tr.ns(time.Now()), Covered: int64(time.Since(start) - out.wall)})
		}
		captureWall += out.capture
		scans++
		ms := float64(out.cpu) / float64(time.Millisecond)
		all.Add(ms)
		if st.spec(k).mobile {
			mobile.Add(ms)
		} else {
			stationary.Add(ms)
		}
		cpuOurs += out.cpu
		wallOurs += out.wall
		cpuWSD += out.cpuSelf
		agree += out.truthAgree
		harmful += out.harmful
		for i, d := range out.decisions {
			decisions++
			if d.Label == dataset.LabelSafe {
				safe++
			}
			if d.Converged {
				converged++
			}
			captures += out.captures[i]
			kept += d.ReadingsUsed
		}
	}
	runtimeLayers(runtime0, scans, res.Layers)

	res.add(
		pct("scan_cpu_p50_ms", &all, 0.5, "ms"), pct("scan_cpu_p90_ms", &all, 0.9, "ms"),
		pct("scan_cpu_stationary_p50_ms", &stationary, 0.5, "ms"), pct("scan_cpu_stationary_p90_ms", &stationary, 0.9, "ms"),
		pct("scan_cpu_mobile_p50_ms", &mobile, 0.5, "ms"), pct("scan_cpu_mobile_p90_ms", &mobile, 0.9, "ms"),
	)
	res.Gated = map[string]string{
		"main_p50_ms": "scan_cpu_p50_ms", "main_p90_ms": "scan_cpu_p90_ms",
		"aux_p50_ms": "scan_cpu_stationary_p50_ms", "aux_p90_ms": "scan_cpu_stationary_p90_ms",
	}
	res.Attempted, res.Failed = scans, 0
	failedShare(res)
	res.add(val("peak_rss_mb", peakRSSMB(), "MB"))
	if cpuOurs > 0 {
		res.note("cross-check over %d scans: (wall − capture) / CPU = %.3f; WSD CPUTime / CPU = %.3f",
			scans, float64(wallOurs)/float64(cpuOurs), float64(cpuWSD)/float64(cpuOurs))
	}
	if decisions > 0 {
		res.note("ground truth (rfenv): decisions agree with decodable ⇔ NotSafe %.4f of %d; Safe decisions at decodable locations %d of %d Safe",
			float64(agree)/float64(decisions), decisions, harmful, safe)
	}

	again := sha256.New()
	for k := 0; k < rescanScans; k++ {
		if _, err := st.scan(k, again, nil); err != nil {
			return nil, err
		}
	}
	same := bytes.Equal(again.Sum(nil), head.Sum(nil))
	res.check("wsd_scan.decisions_repeat", same && scans >= digestScans,
		"decision digest of the first %d scans %x (%d scans run); first %d rescanned identically: %t",
		digestScans, digest.Sum(nil), scans, rescanScans, same)

	if tr != nil && decisions > 0 {
		res.Layers["client.captures_per_decision"] = float64(captures) / float64(decisions)
		res.Layers["client.capture_useful_share"] = float64(kept) / float64(captures)
		res.Layers["client.converged_share"] = float64(converged) / float64(decisions)
		res.Layers["sensor.capture_us"] = us(captureWall) / float64(captures)
		// Capture streams for the replay are kept after the timed scans,
		// by scanning again: keeping them during the timed scans would
		// grow the heap and thin out garbage collection there.
		var streams []keptStream
		for k := 0; k < recordMobile*mobileEvery; k++ {
			if k != 0 && !st.spec(k).mobile {
				continue
			}
			out, err := st.scan(k, nil, func(ci int) bool { return k == 0 || ci < recordStream })
			if err != nil {
				return nil, err
			}
			streams = append(streams, out.streams...)
		}
		replayDetector(res.Layers, st, streams, tr)
		replayBodies(res.Layers, st.bodies, tr)
	}
	return res, nil
}

// replayDetector times feature extraction, Offer, Decide and Classify on
// the capture streams the traced pass kept.
func replayDetector(layers map[string]float64, st *wsdStack, streams []keptStream, tr *Tracer) {
	var extract, offer, decide, classify []float64
	cal := st.dev.Calibration()
	tr.Time("replay/detector", func() {
		for _, ks := range streams {
			model := st.models[ks.ch]
			det, err := core.NewDetector(model, scanDetector)
			if err != nil {
				return
			}
			for _, ob := range ks.obs {
				start := time.Now()
				sig, err := features.FromObservation(ob, cal)
				extract = append(extract, us(time.Since(start)))
				if err != nil {
					continue
				}
				start = time.Now()
				det.Offer(sig)
				offer = append(offer, us(time.Since(start)))
			}
			var dec core.Decision
			decide = append(decide, timeEach(8, func() { dec, _ = det.Decide(ks.loc) }))
			classify = append(classify, timeEach(64, func() { model.Classify(ks.loc, dec.Signal) })) //nolint:errcheck // timing only
		}
	})
	layers["features.extract_us"] = Median(extract)
	layers["core.detector_offer_us"] = Median(offer)
	layers["core.detector_decide_us"] = Median(decide)
	layers["core.classify_us"] = Median(classify)
}

// threadCPU is the CPU time of the calling OS thread; the caller holds
// runtime.LockOSThread. Unlike wall time it excludes time the thread
// waits for a CPU, so scan cost does not swing with machine load.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // cannot fail for this clock
	return time.Duration(ts.Nano())
}
