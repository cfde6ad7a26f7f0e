package replay

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/ingest"
	"bitswapmon/internal/popularity"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// powerLawTrace builds a single-monitor trace whose per-CID request counts
// follow a discrete power law, so fits have a real exponent to recover.
func powerLawTrace(seed int64, cids int, alpha float64, span time.Duration) []trace.Entry {
	rng := rand.New(rand.NewSource(seed))
	requesters := make([]simnet.NodeID, 40)
	for i := range requesters {
		requesters[i] = simnet.DeriveNodeID([]byte(fmt.Sprintf("pl-req-%d", i)))
	}
	var entries []trace.Entry
	for i := 0; i < cids; i++ {
		// count ∝ (i+1)^(-1/(alpha-1)) scaled: inverse-CDF of the rank.
		count := int(200*math.Pow(float64(i+1), -1/(alpha-1))) + 1
		c := cid.Sum(cid.Raw, []byte(fmt.Sprintf("pl-item-%d", i)))
		for j := 0; j < count; j++ {
			entries = append(entries, trace.Entry{
				Timestamp: t0.Add(time.Duration(rng.Int63n(int64(span)))),
				Monitor:   "us",
				NodeID:    requesters[rng.Intn(len(requesters))],
				Type:      wire.WantHave,
				CID:       c,
			})
		}
	}
	trace.Sort(entries)
	return entries
}

func TestFitModel(t *testing.T) {
	traces := syntheticTrace(10, 500, 2*time.Hour)
	var sources []ingest.EntrySource
	for _, name := range []string{"de", "us"} {
		sources = append(sources, ingest.SliceSource(traces[name]))
	}
	m, err := Fit(ingest.NewStreamUnifier(sources...))
	if err != nil {
		t.Fatal(err)
	}
	if m.Entries != len(traces["de"])+len(traces["us"]) {
		t.Errorf("entries %d, want %d", m.Entries, len(traces["de"])+len(traces["us"]))
	}
	if m.Requests <= 0 || m.Requests > m.Entries {
		t.Errorf("requests %d out of range", m.Requests)
	}
	if m.Requesters != 20 {
		t.Errorf("requesters %d, want 20", m.Requesters)
	}
	if m.WantBlockShare <= 0 || m.WantBlockShare >= 1 {
		t.Errorf("want-block share %f", m.WantBlockShare)
	}
	var hourSum float64
	for _, v := range m.Hourly {
		hourSum += v
	}
	if math.Abs(hourSum-1) > 1e-9 {
		t.Errorf("hourly shares sum to %f", hourSum)
	}
	if len(m.Activity) != m.Requesters {
		t.Errorf("activity has %d entries", len(m.Activity))
	}
	for i := 1; i < len(m.Activity); i++ {
		if m.Activity[i] > m.Activity[i-1] {
			t.Fatal("activity not descending")
		}
	}
	total := 0
	for i, cc := range m.Popularity {
		total += cc.Count
		if i > 0 && cc.Count > m.Popularity[i-1].Count {
			t.Fatal("popularity not descending")
		}
	}
	if total != m.Requests {
		t.Errorf("popularity counts sum to %d, want %d", total, m.Requests)
	}
}

func TestFitEmptyTrace(t *testing.T) {
	if _, err := Fit(ingest.SliceSource(nil)); err == nil {
		t.Fatal("expected error for empty trace")
	}
}

func TestFittedSourceShape(t *testing.T) {
	entries := powerLawTrace(11, 60, 2.2, time.Hour)
	m, err := Fit(ingest.NewStreamUnifier(ingest.SliceSource(entries)))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewFittedSource(m, FittedOptions{Amplify: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(src.requesters) != 3*m.Requesters {
		t.Errorf("fitted requesters %d, want %d", len(src.requesters), 3*m.Requesters)
	}
	events := 0
	var lastOff time.Duration
	seenReq := make(map[simnet.NodeID]bool)
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Offset < lastOff {
			t.Fatal("fitted events out of order")
		}
		if ev.Offset > m.Duration {
			t.Fatalf("event at %v beyond model duration %v", ev.Offset, m.Duration)
		}
		if ev.Monitor != "" {
			t.Fatal("fitted events must broadcast (empty monitor)")
		}
		lastOff = ev.Offset
		seenReq[ev.Requester] = true
		events++
	}
	// Poisson volume: 3× the model's requests, within 5 sigma.
	want := float64(3 * m.Requests)
	if diff := math.Abs(float64(events) - want); diff > 5*math.Sqrt(want) {
		t.Errorf("generated %d events, want ≈ %.0f", events, want)
	}
	if len(seenReq) < len(src.requesters)/2 {
		t.Errorf("only %d of %d requesters active", len(seenReq), len(src.requesters))
	}
}

// TestFittedAmplifyPreservesAlpha is the acceptance check: fitting a
// power-law trace and replaying it 10× amplified yields a monitor-side
// popularity whose fitted alpha matches the model's within tolerance.
func TestFittedAmplifyPreservesAlpha(t *testing.T) {
	entries := powerLawTrace(12, 80, 2.0, 30*time.Minute)
	paths := writeStores(t, t.TempDir(), map[string][]trace.Entry{"us": entries})

	sess, err := Prepare(Spec{
		Mode:     ModeFitted,
		Inputs:   paths,
		Amplify:  10,
		TimeWarp: 6, // compress the half-hour model span for test speed
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Model == nil || sess.Model.PowerLaw == nil {
		t.Fatal("model did not fit a power law")
	}
	if sess.World.PoolSize() != 10*sess.Model.Requesters {
		t.Errorf("pool %d, want %d", sess.World.PoolSize(), 10*sess.Model.Requesters)
	}
	mems := record(sess)
	stats, err := sess.Drive()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events < 5*sess.Model.Requests {
		t.Fatalf("amplified replay generated only %d events (model %d)", stats.Events, sess.Model.Requests)
	}
	counter := popularity.NewCounterWith(trace.NewSymbols())
	for _, e := range mems[sess.World.Monitors[0].Name].Snapshot() {
		counter.Write(e)
	}
	rrp, _ := counter.SortedValues()
	fit, err := popularity.FitPowerLaw(rrp)
	if err != nil {
		t.Fatal(err)
	}
	wantAlpha := sess.Model.PowerLaw.Alpha
	if rel := math.Abs(fit.Alpha-wantAlpha) / wantAlpha; rel > 0.2 {
		t.Errorf("replayed alpha %.3f vs fitted %.3f (%.0f%% off)", fit.Alpha, wantAlpha, 100*rel)
	}
}

func TestFittedSourceDeterministic(t *testing.T) {
	entries := powerLawTrace(13, 40, 2.1, 20*time.Minute)
	m, err := Fit(ingest.NewStreamUnifier(ingest.SliceSource(entries)))
	if err != nil {
		t.Fatal(err)
	}
	drain := func() []Event {
		src, err := NewFittedSource(m, FittedOptions{Amplify: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var out []Event
		for {
			ev, err := src.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ev)
		}
	}
	a, b := drain(), drain()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}
