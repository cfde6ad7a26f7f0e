package workload

import (
	"fmt"
	"testing"
	"time"

	"bitswapmon/internal/blockstore"
	"bitswapmon/internal/cid"
	"bitswapmon/internal/engine"
	"bitswapmon/internal/merkledag"
)

// TestWorldSharesBlockBytes runs a small world, then reads every block in
// every node's, gateway's and monitor's store. Only DagProtobuf blocks may
// carry bytes; every other block is its CID alone. Each DagProtobuf block
// must still hash to its CID: a holder that wrote into bytes it shares would
// break another's copy. And every DagProtobuf CID held by two or more stores
// must be backed by one array: the world holds each node's bytes once, from
// the publisher's store through the messages that carry it to every store
// that received it. The two-shard run reads shared bytes from several
// goroutines at once.
func TestWorldSharesBlockBytes(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := smallConfig(11)
			if shards > 1 {
				cfg.NewEngine = engine.ShardedFactory(shards)
			}
			w, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mems := record(w)
			w.Run(2 * time.Hour)

			var stores []*blockstore.Store
			for _, sn := range w.Nodes {
				stores = append(stores, sn.N.Store)
			}
			for _, g := range w.Gateways {
				stores = append(stores, g.Node.Store)
			}
			for _, m := range w.Monitors {
				stores = append(stores, m.Node.Store)
			}

			// The blocks a store can hold: the DAGs of the catalog's items
			// and of whatever the monitors saw requested (web items are
			// published during the run, outside the catalog).
			var blocks []cid.CID
			listed := make(map[cid.CID]bool)
			var list func(c cid.CID)
			list = func(c cid.CID) {
				if listed[c] {
					return
				}
				listed[c] = true
				blocks = append(blocks, c)
				if c.Codec() != cid.DagProtobuf {
					return
				}
				for _, s := range stores {
					if data, ok := s.Get(c); ok {
						node, err := merkledag.DecodeNode(c.Codec(), data)
						if err != nil {
							t.Fatal(err)
						}
						for _, l := range node.Links {
							list(l.CID)
						}
						return
					}
				}
			}
			for _, it := range w.Catalog.Items {
				list(it.Root)
			}
			for _, mem := range mems {
				for _, e := range mem.Snapshot() {
					list(e.CID)
				}
			}

			first := make(map[cid.CID][]byte)
			shared, apart, other := 0, 0, 0
			for _, s := range stores {
				for _, c := range blocks {
					data, ok := s.Get(c)
					if !ok {
						continue
					}
					if c.Codec() != cid.DagProtobuf {
						if data != nil {
							t.Fatalf("a store holds %d bytes of %v block %s", len(data), c.Codec(), c)
						}
						other++
						continue
					}
					if mh, err := c.Hash(); err != nil || mh.Verify(data) != nil {
						t.Fatalf("block %s no longer hashes to its CID", c)
					}
					a, seen := first[c]
					if !seen {
						first[c] = data
						continue
					}
					if len(data) == 0 {
						continue
					}
					shared++
					if &a[0] != &data[0] {
						apart++
					}
				}
			}
			if shared == 0 || other == 0 {
				t.Fatalf("%d second-or-later holdings of a DagProtobuf block, %d holdings of other blocks; want some of each", shared, other)
			}
			if apart > 0 {
				t.Errorf("%d of %d second-or-later holdings of a block have their own copy of its bytes", apart, shared)
			}
		})
	}
}
