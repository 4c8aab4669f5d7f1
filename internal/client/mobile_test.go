package client

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// countingRadio counts the captures a WSD takes.
type countingRadio struct {
	Radio
	captures int
}

func (r *countingRadio) Capture(ch rfenv.Channel) (sensor.Observation, error) {
	r.captures++
	return r.Radio.Capture(ch)
}

// TestSenseChannelStopsAtDetectorCap checks that a stream that never
// converges stops capturing at the detector's MaxReadings when the WSD
// sets no cap of its own, and that the extra captures a larger cap buys
// do not change the decision.
func TestSenseChannelStopsAtDetectorCap(t *testing.T) {
	w := newTestWorld(t, []rfenv.Channel{47})
	m, _, err := w.client.Model(47, sensor.KindRTLSDR)
	if err != nil {
		t.Fatal(err)
	}
	dev := calibratedDevice(t, sensor.RTLSDR(), rand.New(rand.NewSource(30)))
	loc := rfenv.MetroCenter.Offset(120, 3000)
	detector := core.DetectorConfig{AlphaDB: 0.5, MaxReadings: 128}
	sense := func(maxPerChannel int) (core.Decision, int) {
		radio := &countingRadio{Radio: &SimRadio{
			Env: w.env, Device: dev, SpeedMPS: 15, HeadingDeg: 45,
			Rng: rand.New(rand.NewSource(31)),
		}}
		radio.Radio.(*SimRadio).SetPosition(loc)
		wsd := &WSD{
			Radio:                 radio,
			Models:                map[rfenv.Channel]*core.Model{47: m},
			Detector:              detector,
			MaxReadingsPerChannel: maxPerChannel,
		}
		cs, err := wsd.SenseChannel(47, loc)
		if err != nil {
			t.Fatal(err)
		}
		return cs.Decision, radio.captures
	}
	dec, captures := sense(0)
	if dec.Converged {
		t.Fatal("the moving radio converged; the test needs a stream that does not")
	}
	if captures != detector.MaxReadings {
		t.Errorf("captures = %d, want the detector's MaxReadings %d", captures, detector.MaxReadings)
	}
	long, longCaptures := sense(1024)
	if longCaptures != 1024 {
		t.Errorf("captures with a 1024 cap = %d", longCaptures)
	}
	if !reflect.DeepEqual(dec, long) {
		t.Errorf("decision at the detector's cap %+v differs from the 1024-capture one %+v", dec, long)
	}
}
