package attacks

import (
	"testing"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/otrace"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
	"bitswapmon/internal/workload"
)

func TestFindCancellations(t *testing.T) {
	var n1, n2 simnet.NodeID
	n1[0], n2[0] = 1, 2
	c1 := cid.Sum(cid.Raw, []byte("downloaded"))
	c2 := cid.Sum(cid.Raw, []byte("abandoned"))
	base := time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)
	mk := func(n simnet.NodeID, c cid.CID, typ wire.EntryType, at time.Duration) trace.Entry {
		return trace.Entry{Timestamp: base.Add(at), Monitor: "us", NodeID: n, Type: typ, CID: c}
	}
	entries := []trace.Entry{
		mk(n1, c1, wire.WantHave, 0),
		mk(n1, c1, wire.Cancel, time.Second),
		mk(n2, c2, wire.WantHave, 2*time.Second),
		mk(n2, c2, wire.Cancel, 3*time.Second),
		mk(n2, c2, wire.Cancel, 4*time.Second), // duplicate cancel: counted once
		// CANCEL without prior want: not a candidate.
		mk(n1, c2, wire.Cancel, 5*time.Second),
	}
	cands := FindCancellations(entries)
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	if cands[0].NodeID != n1 || !cands[0].CID.Equal(c1) || !cands[0].Cancelled {
		t.Errorf("candidate 0 = %+v", cands[0])
	}
}

func TestConfirmDownloadsLive(t *testing.T) {
	w := buildWorld(t, 9)
	w.Run(30 * time.Minute)

	var downloader *workload.ScenarioNode
	for _, sn := range w.Nodes {
		if sn.Stable && w.Net.IsOnline(sn.N.ID) {
			downloader = sn
			break
		}
	}
	if downloader == nil {
		t.Fatal("no stable node")
	}
	var item cid.CID
	for _, it := range w.Catalog.Items {
		if it.Resolvable && !it.MultiBlock && !downloader.N.Store.Has(it.Root) {
			item = it.Root
			break
		}
	}
	if !item.Defined() {
		t.Fatal("no suitable item")
	}
	ok := false
	downloader.N.Request(otrace.Ctx{}, item, func(_ []byte, o bool) { ok = o })
	w.Run(2 * time.Minute)
	if !ok {
		t.Fatal("download failed")
	}

	ghost := cid.Sum(cid.Raw, []byte("unresolvable"))
	downloader.N.Request(otrace.Ctx{}, ghost, func([]byte, bool) {})
	w.Run(time.Minute)
	downloader.N.CancelRequest(ghost)
	w.Run(time.Minute)

	// Post-CANCEL confirmation probes: the successful download must be
	// confirmed (cached), the abandoned want must not.
	cands := []DownloadConfirmation{
		{NodeID: downloader.N.ID, CID: item, Cancelled: true},
		{NodeID: downloader.N.ID, CID: ghost, Cancelled: true},
	}
	prober, err := NewProber(w.Net, "confirm", "201.0.0.9:4001", simnet.RegionOther)
	if err != nil {
		t.Fatal(err)
	}
	var results []DownloadConfirmation
	ConfirmDownloads(prober, cands, 10*time.Second, func(r []DownloadConfirmation) { results = r })
	w.Run(time.Minute)
	if results == nil {
		t.Fatal("confirmation never completed")
	}
	if !results[0].Confirmed || !results[0].Answered {
		t.Errorf("successful download not confirmed: %+v", results[0])
	}
	if results[1].Confirmed {
		t.Errorf("abandoned want confirmed as downloaded: %+v", results[1])
	}
}

func TestConfirmDownloadsEmpty(t *testing.T) {
	w := buildWorld(t, 10)
	prober, err := NewProber(w.Net, "confirm2", "201.0.0.10:4001", simnet.RegionOther)
	if err != nil {
		t.Fatal(err)
	}
	called := false
	ConfirmDownloads(prober, nil, time.Second, func(r []DownloadConfirmation) {
		called = true
		if len(r) != 0 {
			t.Error("non-empty result for empty candidates")
		}
	})
	if !called {
		t.Error("done not called for empty candidates")
	}
}
