package dht

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"bitswapmon/internal/simnet"
)

// providerModel is the reference ProviderStore: a map of maps with the
// store's contract. Get drops the key's expired records (a record expiring
// exactly at now survives), deletes a key left empty and returns the rest in
// ID order; Len counts keys, expired records included until a Get.
type providerModel struct {
	ttl     time.Duration
	records map[Key]map[simnet.NodeID]modelRecord
}

type modelRecord struct {
	info    PeerInfo
	expires time.Time
}

func (m *providerModel) add(key Key, p PeerInfo, now time.Time) {
	if m.records[key] == nil {
		m.records[key] = make(map[simnet.NodeID]modelRecord)
	}
	m.records[key][p.ID] = modelRecord{info: p, expires: now.Add(m.ttl)}
}

func (m *providerModel) get(key Key, now time.Time) []PeerInfo {
	recs, ok := m.records[key]
	if !ok {
		return nil
	}
	var out []PeerInfo
	for id, r := range recs {
		if r.expires.Before(now) {
			delete(recs, id)
			continue
		}
		out = append(out, r.info)
	}
	if len(recs) == 0 {
		delete(m.records, key)
	}
	slices.SortFunc(out, func(a, b PeerInfo) int { return a.ID.Compare(b.ID) })
	return out
}

// TestProviderStoreMatchesModel drives the store and the reference with the
// same seeded random Adds and Gets at advancing times. Re-adds refresh a
// record's expiry and may change its Server flag. Times move in whole
// minutes against a TTL of whole minutes, so Gets land exactly on expiry
// instants too.
func TestProviderStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ttlMin := 1 + rng.Intn(30)
		ttl := time.Duration(ttlMin) * time.Minute
		s := NewProviderStore(ttl)
		model := &providerModel{ttl: ttl, records: make(map[Key]map[simnet.NodeID]modelRecord)}
		keys := make([]Key, 1+rng.Intn(4))
		for i := range keys {
			keys[i] = Key(simnet.RandomNodeID(rng))
		}
		peers := make([]simnet.NodeID, 1+rng.Intn(16))
		for i := range peers {
			peers[i] = simnet.RandomNodeID(rng)
		}
		now := t0
		gets := 0
		for op := 0; op < 600; op++ {
			now = now.Add(time.Duration(rng.Intn(ttlMin/2+1)) * time.Minute)
			key := keys[rng.Intn(len(keys))]
			if rng.Intn(3) > 0 {
				p := PeerInfo{ID: peers[rng.Intn(len(peers))], Server: rng.Intn(2) == 0}
				s.Add(key, p, now)
				model.add(key, p, now)
			} else {
				got, want := s.Get(key, now), model.get(key, now)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: Get = %v, want %v", seed, op, got, want)
				}
				// The result is the caller's own: scribbling over it must
				// not reach the store, which later Gets would show.
				clear(got)
				gets++
			}
			if len(s.records) != len(model.records) {
				t.Fatalf("seed %d op %d: %d keys, want %d", seed, op, len(s.records), len(model.records))
			}
		}
		if gets == 0 {
			t.Fatalf("seed %d ran no Get", seed)
		}
	}
}
