// Package workload generates the synthetic IPFS usage scenario: the content
// catalog, node population (geography, DHT modes, activity), churn, monitor
// connectivity, and request traffic whose traces the monitoring pipeline
// analyses.
//
// This package is the stand-in for the live IPFS network of the paper's
// fifteen-month study. Config is the world a scenario spec describes: its
// fields are the spec's world keys (README.md, "Sweeps").
package workload

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"bitswapmon/internal/blockstore"
	"bitswapmon/internal/cid"
	"bitswapmon/internal/merkledag"
	"bitswapmon/internal/simnet"
	"bitswapmon/internal/wire"
)

// The content catalog's shape.
const (
	// defaultCatalogItems is the catalog size when a world leaves
	// CatalogItems zero.
	defaultCatalogItems = 2000
	// unresolvableFrac is the fraction of CIDs that reference no stored
	// data: Sec. V-E observes that popular RRP items are often not
	// resolvable.
	unresolvableFrac = 0.10
	// hotItems is the number of head items with outsized popularity (the
	// Uniswap-config-style CIDs).
	hotItems = 10
	// meanFileSize is the mean DagProtobuf file size in bytes (files are
	// chunked at the node's chunk size).
	meanFileSize = 8 << 10
	// weightSigma is the lognormal sigma of per-item request weights. A
	// lognormal weight mixture is deliberately *not* a power law, so the
	// Sec. V-E CSN test rejects, matching the paper.
	weightSigma = 2.0
)

// codecShares are the paper's Table I multicodec shares, in ascending codec
// order: BuildCatalog draws a codec by scanning them in this order.
var codecShares = []struct {
	codec cid.Codec
	share float64
}{
	{cid.Raw, 0.1342},
	{cid.DagProtobuf, 0.8621},
	{cid.DagCBOR, 0.0037},
	{cid.GitRaw, 0.00002},
	{cid.EthereumTx, 0.00001},
	{cid.DagJSON, 0.00001},
}

// Item is one catalog entry.
type Item struct {
	// Root addresses the item (file root for DagProtobuf, single block
	// otherwise).
	Root cid.CID
	// Codec is the item's multicodec.
	Codec cid.Codec
	// Resolvable reports whether any node stores the referenced data.
	Resolvable bool
	// Hot marks head items.
	Hot bool
	// Weight is the request-sampling weight.
	Weight float64
	// Blocks are what a publisher stores for a resolvable item: its DAG's
	// blocks, or its single block, each with the bytes blockstore.KeepsBytes
	// keeps. Unresolvable items have none.
	Blocks []wire.Block
	// MultiBlock reports whether the item is a chunked DAG.
	MultiBlock bool
}

// blockList is a merkledag.BlockSink that lists the blocks a builder emits,
// keeping bytes only where blockstore.KeepsBytes does.
type blockList []wire.Block

func (l *blockList) Put(c cid.CID, data []byte) {
	if !blockstore.KeepsBytes(c) {
		data = nil
	}
	*l = append(*l, wire.Block{CID: c, Data: data})
}

// Catalog is the sampled content population.
type Catalog struct {
	Items []Item
	// cum holds cumulative weights for O(log n) sampling.
	cum []float64
}

// BuildCatalog draws a catalog of items entries (zero selects 2000). Each
// item's content bytes are drawn into one reused buffer and addressed on the
// spot; the item keeps its CIDs, never the bytes. Publishing to nodes
// happens in Scenario construction.
func BuildCatalog(items int, rng *rand.Rand) *Catalog {
	if items <= 0 {
		items = defaultCatalogItems
	}
	pickCodec := func() cid.Codec {
		u := rng.Float64()
		acc := 0.0
		for _, cs := range codecShares {
			acc += cs.share
			if u < acc {
				return cs.codec
			}
		}
		return cid.DagProtobuf
	}

	cat := &Catalog{Items: make([]Item, 0, items)}
	var buf []byte
	for i := 0; i < items; i++ {
		item := Item{
			Codec:      pickCodec(),
			Resolvable: rng.Float64() >= unresolvableFrac,
			Weight:     math.Exp(rng.NormFloat64() * weightSigma),
		}
		if i < hotItems {
			item.Hot = true
			// Head items: a couple of orders of magnitude above the
			// typical weight, but bounded — a heavy head, not a
			// power-law tail.
			item.Weight = 100 + 100*rng.Float64()
			item.Resolvable = true
			item.Codec = cid.DagProtobuf
		}
		size := 1 + rng.Intn(2*meanFileSize)
		buf = slices.Grow(buf[:0], size)[:size]
		rng.Read(buf)
		// Unresolvable items get a CID derived from content that no node
		// will ever store.
		var blocks blockList
		switch {
		case item.Codec == cid.DagProtobuf && item.Resolvable:
			item.Root, _ = merkledag.NewBuilder(&blocks, chunkSize, 0).AddFile(buf)
			item.MultiBlock = true
		default:
			item.Root = cid.Sum(item.Codec, buf)
			if item.Resolvable {
				blocks.Put(item.Root, buf)
			}
		}
		item.Blocks = blocks
		cat.Items = append(cat.Items, item)
	}
	return cat
}

// finalize computes cumulative weights; must run after publish assigns all
// root CIDs. Weights that cannot order a cumulative scan (negative, NaN,
// infinite) contribute zero instead of corrupting every later prefix sum.
func (c *Catalog) finalize() {
	c.cum = make([]float64, len(c.Items))
	acc := 0.0
	for i, item := range c.Items {
		w := item.Weight
		if w > 0 && !math.IsInf(w, 1) {
			acc += w
		}
		c.cum[i] = acc
	}
}

// Sample draws an item index proportional to weight. It is empty-safe rather
// than panicking: an empty catalog yields nil (callers treat that as "no
// request"), and a catalog whose weights sum to zero falls back to a uniform
// draw.
func (c *Catalog) Sample(rng *rand.Rand) *Item {
	if len(c.Items) == 0 {
		return nil
	}
	if len(c.cum) != len(c.Items) {
		c.finalize()
	}
	total := c.cum[len(c.cum)-1]
	if !(total > 0) {
		return &c.Items[rng.Intn(len(c.Items))]
	}
	u := rng.Float64() * total
	idx := sort.SearchFloat64s(c.cum, u)
	if idx >= len(c.Items) {
		idx = len(c.Items) - 1
	}
	return &c.Items[idx]
}

// CountryWeights is a request/population share per country.
type CountryWeights map[simnet.Region]float64

// countries weights both node placement and request shares. It
// approximates the paper's Table II: US 45.65%, NL 13.85%, DE 12.72%,
// CA 7.61%, FR 6.64%, Others <13.6%.
var countries = CountryWeights{
	simnet.RegionUS:    0.4565,
	simnet.RegionNL:    0.1385,
	simnet.RegionDE:    0.1272,
	simnet.RegionCA:    0.0761,
	simnet.RegionFR:    0.0664,
	simnet.RegionOther: 0.1353,
}

// Sample draws a country proportional to weight.
func (w CountryWeights) Sample(rng *rand.Rand) simnet.Region {
	regions := make([]simnet.Region, 0, len(w))
	for r := range w {
		regions = append(regions, r)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	var total float64
	for _, r := range regions {
		total += w[r]
	}
	u := rng.Float64() * total
	acc := 0.0
	for _, r := range regions {
		acc += w[r]
		if u < acc {
			return r
		}
	}
	return regions[len(regions)-1]
}

// utcOffsetHours roughly places each country's local time for the diurnal
// activity curve.
func utcOffsetHours(r simnet.Region) float64 {
	switch r {
	case simnet.RegionUS:
		return -6
	case simnet.RegionCA:
		return -5
	case simnet.RegionNL, simnet.RegionDE, simnet.RegionFR:
		return 1
	default:
		return 8
	}
}

// diurnalFactor modulates request rates over the local day: low at night,
// peaking in the local evening.
func diurnalFactor(utcHour float64, region simnet.Region) float64 {
	local := math.Mod(utcHour+utcOffsetHours(region)+24, 24)
	return 1 + 0.5*math.Sin(2*math.Pi*(local-14)/24)
}
