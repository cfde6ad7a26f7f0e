package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/geoip"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/trace"
	"bitswapmon/internal/wire"
)

// monitorNames are the paper's two vantage points; every feed and scenario
// in the benchmark records under these names.
var monitorNames = [2]string{"us", "de"}

// feedEpoch is the virtual start time of every generated feed (the same
// epoch the workload and replay packages default to).
var feedEpoch = time.Date(2021, 4, 30, 0, 0, 0, 0, time.UTC)

// feed is a generated pair of monitor traces plus the generator's own exact
// bookkeeping, which the correctness checks compare the pipeline against.
type feed struct {
	// mon holds each monitor's stream, timestamp-ordered, as a monitor
	// produces it. Index matches monitorNames.
	mon [2][]trace.Entry

	entries     int
	uniquePeers int
	uniqueCIDs  int

	geo         *geoip.DB
	gatewayIDs  map[simnet.NodeID]bool
	megagateIDs map[simnet.NodeID]bool
}

// regionWeights places the feed's peers; the cumulative share is out of 100.
var regionWeights = []struct {
	region simnet.Region
	upTo   int
}{
	{simnet.RegionUS, 30}, {simnet.RegionDE, 45}, {simnet.RegionNL, 55},
	{simnet.RegionCA, 60}, {simnet.RegionFR, 70}, {simnet.RegionOther, 100},
}

// genFeed generates n logical requests spread evenly over span: peers are
// drawn Zipf(1.1) from sz.Peers, CIDs Zipf(1.2) from sz.CIDs, 40 % of the
// requests reach monitor us only, 40 % de only and 20 % both, a few
// milliseconds apart. The same seed gives the same feed.
func genFeed(seed int64, sz sizes, n int, span time.Duration) (*feed, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &feed{
		geo:         geoip.New(),
		gatewayIDs:  make(map[simnet.NodeID]bool),
		megagateIDs: make(map[simnet.NodeID]bool),
	}

	type peer struct {
		id   simnet.NodeID
		addr string
	}
	peers := make([]peer, sz.Peers)
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	for i := range peers {
		binary.LittleEndian.PutUint64(buf[8:], uint64(i))
		peers[i].id = simnet.DeriveNodeID(buf[:])
		pick := rng.Intn(100)
		region := simnet.RegionOther
		for _, rw := range regionWeights {
			if pick < rw.upTo {
				region = rw.region
				break
			}
		}
		addr, err := f.geo.Allocate(region)
		if err != nil {
			return nil, fmt.Errorf("feed: allocate address: %w", err)
		}
		peers[i].addr = addr
		// The busiest peers play the gateways of fig6 and the traffic
		// report, the top few the dominant operator.
		if i < 40 {
			f.gatewayIDs[peers[i].id] = true
		}
		if i < 10 {
			f.megagateIDs[peers[i].id] = true
		}
	}

	codecs := []cid.Codec{cid.DagProtobuf, cid.DagProtobuf, cid.DagProtobuf, cid.DagProtobuf,
		cid.Raw, cid.DagCBOR}
	cids := make([]cid.CID, sz.CIDs)
	buf[0] ^= 0xc1 // keep CID preimages apart from peer preimages
	for i := range cids {
		binary.LittleEndian.PutUint64(buf[8:], uint64(i))
		cids[i] = cid.Sum(codecs[i%len(codecs)], buf[:])
	}

	peerZipf := rand.NewZipf(rng, 1.1, 1, uint64(len(peers)-1))
	cidZipf := rand.NewZipf(rng, 1.2, 1, uint64(len(cids)-1))
	seenPeer := make([]bool, len(peers))
	seenCID := make([]bool, len(cids))
	spacing := span / time.Duration(n)
	if spacing < 20*time.Millisecond {
		return nil, fmt.Errorf("feed: %d requests over %v leaves no room for the inter-monitor delay", n, span)
	}
	for m := range f.mon {
		f.mon[m] = make([]trace.Entry, 0, n*6/10+n/50)
	}

	for i := 0; i < n; i++ {
		pi, ci := peerZipf.Uint64(), cidZipf.Uint64()
		if !seenPeer[pi] {
			seenPeer[pi] = true
			f.uniquePeers++
		}
		if !seenCID[ci] {
			seenCID[ci] = true
			f.uniqueCIDs++
		}
		typ := wire.WantHave
		switch t := rng.Intn(10); {
		case t < 2:
			typ = wire.WantBlock
		case t < 3:
			typ = wire.Cancel
		}
		e := trace.Entry{
			Timestamp: feedEpoch.Add(time.Duration(i) * spacing),
			NodeID:    peers[pi].id,
			Addr:      peers[pi].addr,
			Type:      typ,
			CID:       cids[ci],
		}
		// The delay stays below the spacing, so each monitor's stream is
		// timestamp-ordered without sorting.
		delay := time.Duration(1+rng.Intn(9)) * time.Millisecond
		first := rng.Intn(2)
		switch v := rng.Intn(10); {
		case v < 4:
			f.add(0, e)
		case v < 8:
			f.add(1, e)
		default:
			f.add(first, e)
			e.Timestamp = e.Timestamp.Add(delay)
			f.add(1-first, e)
		}
	}
	return f, nil
}

func (f *feed) add(m int, e trace.Entry) {
	e.Monitor = monitorNames[m]
	f.mon[m] = append(f.mon[m], e)
	f.entries++
}

// merged returns both monitors' entries in global timestamp order, the
// order a simulation's event loop delivers them in (every monitor shares one
// clock). Ties keep monitor us first.
func (f *feed) merged() []trace.Entry {
	out := make([]trace.Entry, 0, f.entries)
	a, b := f.mon[0], f.mon[1]
	for len(a) > 0 && len(b) > 0 {
		if b[0].Timestamp.Before(a[0].Timestamp) {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}
