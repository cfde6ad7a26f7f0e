package dht

import (
	"crypto/sha256"
	"slices"
	"time"

	"bitswapmon/internal/cid"
	"bitswapmon/internal/simnet"
)

// Key is a point in the DHT keyspace. Provider records for a CID live at the
// sha2-256 of the CID's bytes.
type Key [32]byte

// KeyForCID maps a CID to its DHT key.
func KeyForCID(c cid.CID) Key {
	return Key(sha256.Sum256(c.Bytes()))
}

// AsNodeID reinterprets the key as a NodeID for XOR-distance routing.
func (k Key) AsNodeID() simnet.NodeID { return simnet.NodeID(k) }

// DefaultProviderTTL is how long provider records are kept. go-ipfs uses 24h
// with a 12h reprovide interval.
const DefaultProviderTTL = 24 * time.Hour

// providerRecord is one provider of one key. It holds no pointer, so a
// key's record slice is never scanned by the GC.
type providerRecord struct {
	info    PeerInfo
	expires int64 // Unix nanoseconds
}

// ProviderStore holds provider records on a DHT server.
type ProviderStore struct {
	ttl time.Duration
	// records holds each key's providers sorted by peer ID.
	records map[Key][]providerRecord
}

// NewProviderStore creates a store with the given TTL (<= 0 selects
// DefaultProviderTTL).
func NewProviderStore(ttl time.Duration) *ProviderStore {
	if ttl <= 0 {
		ttl = DefaultProviderTTL
	}
	return &ProviderStore{ttl: ttl, records: make(map[Key][]providerRecord)}
}

// Add records that p provides key, as of now. Re-adding a provider
// refreshes its record.
func (s *ProviderStore) Add(key Key, p PeerInfo, now time.Time) {
	rec := providerRecord{info: p, expires: now.Add(s.ttl).UnixNano()}
	recs := s.records[key]
	i, found := slices.BinarySearchFunc(recs, p.ID, func(r providerRecord, id simnet.NodeID) int {
		return r.info.ID.Compare(id)
	})
	if found {
		recs[i] = rec
		return
	}
	s.records[key] = slices.Insert(recs, i, rec)
}

// Get returns the unexpired providers for key, sorted by ID for determinism.
// Expired records are dropped as it goes.
func (s *ProviderStore) Get(key Key, now time.Time) []PeerInfo {
	recs, ok := s.records[key]
	if !ok {
		return nil
	}
	t := now.UnixNano()
	live := recs[:0]
	for _, r := range recs {
		if r.expires >= t {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		delete(s.records, key)
	} else {
		s.records[key] = live
	}
	out := make([]PeerInfo, len(live))
	for i, r := range live {
		out[i] = r.info
	}
	return out
}
