package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/dsp"
	"github.com/wsdetect/waldo/internal/features"
	"github.com/wsdetect/waldo/internal/geo"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/telemetry"
)

func noisySignal(rng *rand.Rand, rss, sigma float64) features.Signal {
	return features.Signal{
		RSSdBm: rss + rng.NormFloat64()*sigma,
		CFTdB:  rss - 11.3 + rng.NormFloat64()*sigma,
		AFTdB:  rss - 13 + rng.NormFloat64()*sigma,
	}
}

func TestDetectorConvergesStationary(t *testing.T) {
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 1})
	d, err := NewDetector(m, DetectorConfig{AlphaDB: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	converged := false
	for i := 0; i < 200; i++ {
		if d.Offer(noisySignal(rng, -70, 0.3)) {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatal("stationary low-noise stream did not converge in 200 readings")
	}
	loc := rfenv.MetroCenter.Offset(90, 6000) // occupied east side
	dec, err := d.Decide(loc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Converged {
		t.Error("decision should record convergence")
	}
	if dec.Label != dataset.LabelNotSafe {
		t.Errorf("strong signal on occupied side → %v, want not-safe", dec.Label)
	}
	if dec.CISpanDB > 0.5 {
		t.Errorf("CI span %v exceeds α", dec.CISpanDB)
	}
	if dec.ReadingsUsed < 8 {
		t.Errorf("readings used = %d", dec.ReadingsUsed)
	}
}

func TestDetectorConvergenceSpeedVsAlpha(t *testing.T) {
	// Larger α must not slow convergence (paper §5 observes the time is
	// flat for stationary devices; at minimum it is monotone).
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 3})
	readingsUntil := func(alpha float64) int {
		d, err := NewDetector(m, DetectorConfig{AlphaDB: alpha})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 1; i <= 2000; i++ {
			if d.Offer(noisySignal(rng, -90, 1.5)) {
				return i
			}
		}
		return 2000
	}
	tight := readingsUntil(0.5)
	loose := readingsUntil(5)
	if loose > tight {
		t.Errorf("α=5 took %d readings, α=0.5 took %d — should not be slower", loose, tight)
	}
}

func TestDetectorMobileFallback(t *testing.T) {
	// A mobile device sweeping across the coverage boundary sees a
	// drifting mean: the CI never settles. The decision must fall back
	// to the conservative NOR rule.
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 5})
	d, err := NewDetector(m, DetectorConfig{AlphaDB: 0.5, MaxReadings: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 64; i++ {
		// RSS drifts 30 dB across the stream: strong at first (occupied),
		// weak at the end.
		rss := -70 - float64(i)/63*30
		if d.Offer(noisySignal(rng, rss, 1)) {
			t.Fatalf("drifting stream converged at reading %d", i+1)
		}
	}
	dec, err := d.Decide(rfenv.MetroCenter.Offset(90, 6000))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Converged {
		t.Error("drifting stream must not be converged")
	}
	// The NOR rule: the high-percentile RSS says occupied, so NotSafe.
	if dec.Label != dataset.LabelNotSafe {
		t.Errorf("fallback label = %v, want not-safe", dec.Label)
	}
}

func TestDetectorResetAndLimits(t *testing.T) {
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 7})
	d, err := NewDetector(m, DetectorConfig{MaxReadings: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 40; i++ {
		d.Offer(noisySignal(rng, -80, 0.2))
	}
	if d.Len() != 16 {
		t.Errorf("stream length = %d, want capped at 16", d.Len())
	}
	d.Reset()
	if d.Len() != 0 {
		t.Error("reset should clear the stream")
	}
	if _, err := d.Decide(rfenv.MetroCenter); err == nil {
		t.Error("decide with no readings must fail")
	}
}

func TestDetectorConfigValidation(t *testing.T) {
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 9})
	bad := []DetectorConfig{
		{AlphaDB: -1},
		{Confidence: 1.5},
		{SmoothingWindow: -2},
		{OutlierLoPct: 90, OutlierHiPct: 10},
		{MinReadings: 1},
		{MinReadings: 100, MaxReadings: 50},
	}
	for i, cfg := range bad {
		if _, err := NewDetector(m, cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
	if _, err := NewDetector(nil, DetectorConfig{}); err == nil {
		t.Error("nil model must fail")
	}
}

func TestUpdaterFlow(t *testing.T) {
	readings, _ := synthReadings(800, 10)
	u, err := NewUpdater(UpdaterConfig{
		Constructor: ConstructorConfig{Classifier: KindNB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Retrain(); err == nil {
		t.Error("retrain with no data must fail")
	}

	u.Bootstrap(readings[:600])
	m1, err := u.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if m1 == nil {
		t.Fatal("nil model")
	}
	if _, v := u.Model(); v != 1 {
		t.Errorf("version = %d, want 1", v)
	}

	// A clean upload is accepted and increases the store.
	if err := u.Submit(UploadBatch{Readings: readings[600:700], CISpanDB: 0.4}); err != nil {
		t.Fatal(err)
	}
	if u.Size() != 700 {
		t.Errorf("store size = %d, want 700", u.Size())
	}
	// A noisy upload is rejected (α′ criterion).
	if err := u.Submit(UploadBatch{Readings: readings[700:750], CISpanDB: 3.0}); err == nil {
		t.Error("noisy upload must be rejected")
	}
	// Empty and mixed uploads are rejected.
	if err := u.Submit(UploadBatch{}); err == nil {
		t.Error("empty upload must be rejected")
	}
	mixed := append([]dataset.Reading(nil), readings[700:705]...)
	mixed[2].Channel = 15
	if err := u.Submit(UploadBatch{Readings: mixed, CISpanDB: 0.1}); err == nil {
		t.Error("mixed upload must be rejected")
	}

	m2, err := u.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if _, v := u.Model(); v != 2 {
		t.Errorf("version = %d, want 2", v)
	}
	if m2 == m1 {
		t.Error("retrain should produce a fresh model")
	}
}

// referenceDecision is the detector's decision computed the way it was
// before the incremental convergence test: every quantity re-sorts and
// re-trims the stream. It returns the decision and the number of
// readings the trim rejected.
func referenceDecision(t *testing.T, m *Model, cfg DetectorConfig, rss, cft, aft []float64, loc geo.Point) (Decision, int) {
	t.Helper()
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	trimmed := dsp.TrimOutliers(rss, cfg.OutlierLoPct, cfg.OutlierHiPct)
	span := dsp.MeanCI(trimmed, cfg.Confidence).Span()
	robust := func(xs []float64) float64 {
		smoothed := dsp.MovingAverage(xs, cfg.SmoothingWindow)
		return dsp.Mean(dsp.TrimOutliers(smoothed, cfg.OutlierLoPct, cfg.OutlierHiPct))
	}
	dec := Decision{
		Converged:    len(rss) >= cfg.MinReadings && span <= cfg.AlphaDB,
		ReadingsUsed: len(rss),
		CISpanDB:     span,
		Signal:       features.Signal{RSSdBm: robust(rss), CFTdB: robust(cft), AFTdB: robust(aft)},
	}
	classify := func(sig features.Signal) dataset.Label {
		label, err := m.Classify(loc, sig)
		if err != nil {
			t.Fatal(err)
		}
		return label
	}
	if dec.Converged {
		dec.Label = classify(dec.Signal)
	} else {
		lo, hi := dec.Signal, dec.Signal
		lo.RSSdBm = dsp.Percentile(rss, cfg.OutlierLoPct)
		hi.RSSdBm = dsp.Percentile(rss, cfg.OutlierHiPct)
		dec.Label = dataset.LabelNotSafe
		if classify(lo) == dataset.LabelSafe && classify(hi) == dataset.LabelSafe {
			dec.Label = dataset.LabelSafe
		}
	}
	return dec, len(rss) - len(trimmed)
}

// TestDetectorMatchesReference pins the incremental convergence test to
// the re-sorting one it replaced: after every offer of seeded streams
// (stationary, rounded with ties, constant, mobile fading, drifting past
// the cap; reset and refilled) Offer's answer, the whole Decision and the outlier counter are
// identical, CISpanDB to the bit.
func TestDetectorMatchesReference(t *testing.T) {
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 11})
	// Here the model's verdict flips between −90 and −80 dBm, so the
	// fading stream's fallback percentiles classify differently.
	loc := rfenv.MetroCenter.Offset(0, 3000)
	streams := []struct {
		name  string
		alpha float64
		next  func(rng *rand.Rand, i int) float64
	}{
		{"stationary", 0.5, func(rng *rand.Rand, _ int) float64 { return -84 + 0.4*rng.NormFloat64() }},
		{"rounded", 1, func(rng *rand.Rand, _ int) float64 { return math.Round(-90 + 1.5*rng.NormFloat64()) }},
		{"constant", 0.5, func(*rand.Rand, int) float64 { return -97 }},
		{"fading", 0.5, func(rng *rand.Rand, _ int) float64 { return -88 + 4*rng.NormFloat64() }},
		{"drifting", 0.5, func(rng *rand.Rand, i int) float64 { return -70 - 0.2*float64(i) + rng.NormFloat64() }},
	}
	for si, st := range streams {
		reg := telemetry.New()
		cfg := DetectorConfig{AlphaDB: st.alpha, MaxReadings: 128, Metrics: reg}
		d, err := NewDetector(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		outliers := reg.Counter("waldo_detector_outliers_rejected_total", "")
		var rss, cft, aft []float64
		var wantOutliers uint64
		rng := rand.New(rand.NewSource(int64(100 + si)))
		for i := 0; i < 200; i++ {
			if i == 150 {
				d.Reset()
				rss, cft, aft = nil, nil, nil
			}
			x := st.next(rng, i)
			sig := features.Signal{RSSdBm: x, CFTdB: x - 11.3 + rng.NormFloat64(), AFTdB: x - 13 + rng.NormFloat64()}
			if len(rss) < cfg.MaxReadings {
				rss, cft, aft = append(rss, sig.RSSdBm), append(cft, sig.CFTdB), append(aft, sig.AFTdB)
			}
			got := d.Offer(sig)
			want, n := referenceDecision(t, m, cfg, rss, cft, aft, loc)
			if got != want.Converged {
				t.Fatalf("%s offer %d: Offer = %v, reference converged = %v", st.name, i+1, got, want.Converged)
			}
			if i%7 != 6 && i != 199 {
				continue
			}
			dec, err := d.Decide(loc)
			if err != nil {
				t.Fatal(err)
			}
			wantOutliers += uint64(n)
			if !reflect.DeepEqual(dec, want) || math.Float64bits(dec.CISpanDB) != math.Float64bits(want.CISpanDB) {
				t.Fatalf("%s offer %d: decision %+v, reference %+v", st.name, i+1, dec, want)
			}
			if got := outliers.Value(); got != wantOutliers {
				t.Fatalf("%s offer %d: outliers counter %d, reference %d", st.name, i+1, got, wantOutliers)
			}
		}
	}
}

// TestDetectorOfferZeroAllocAtCap is the allocation budget of the
// per-capture convergence test: once the stream has reached MaxReadings,
// Offer allocates nothing.
func TestDetectorOfferZeroAllocAtCap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets hold for plain builds only")
	}
	m, _, _ := trainedModel(t, ConstructorConfig{Seed: 12})
	d, err := NewDetector(m, DetectorConfig{AlphaDB: 0.5, MaxReadings: 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for d.Len() < d.MaxReadings() {
		d.Offer(noisySignal(rng, -85, 4))
	}
	sig := noisySignal(rng, -85, 4)
	if n := testing.AllocsPerRun(200, func() { d.Offer(sig) }); n != 0 {
		t.Errorf("Offer at cap allocs/op = %v, want 0", n)
	}
}
