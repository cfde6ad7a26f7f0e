package geoip

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"bitswapmon/internal/simnet"
)

func TestAllocateAndLookup(t *testing.T) {
	db := New()
	for _, region := range []simnet.Region{
		simnet.RegionUS, simnet.RegionNL, simnet.RegionDE,
		simnet.RegionCA, simnet.RegionFR, simnet.RegionOther,
	} {
		addr, err := db.Allocate(region)
		if err != nil {
			t.Fatalf("Allocate(%s): %v", region, err)
		}
		got, ok := db.Lookup(addr)
		if !ok || got != region {
			t.Errorf("Lookup(%s) = %s, %v; want %s", addr, got, ok, region)
		}
	}
}

func TestAllocateUnique(t *testing.T) {
	db := New()
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		addr, err := db.Allocate(simnet.RegionDE)
		if err != nil {
			t.Fatal(err)
		}
		if seen[addr] {
			t.Fatalf("duplicate address %s", addr)
		}
		seen[addr] = true
	}
}

func TestAllocateUnknownRegionFallsBack(t *testing.T) {
	db := New()
	addr, err := db.Allocate("ZZ")
	if err != nil {
		t.Fatal(err)
	}
	region, ok := db.Lookup(addr)
	if !ok || region != simnet.RegionOther {
		t.Errorf("unknown region allocated %s -> %s", addr, region)
	}
}

func TestLookupBareIPAndErrors(t *testing.T) {
	db := New()
	if r, ok := db.Lookup("78.1.2.3"); !ok || r != simnet.RegionDE {
		t.Errorf("bare IP lookup = %s, %v", r, ok)
	}
	for _, bad := range []string{"", "not-an-ip", "256.1.2.3:4001", "::1"} {
		if _, ok := db.Lookup(bad); ok {
			t.Errorf("Lookup(%q) succeeded", bad)
		}
	}
	// Unallocated prefix.
	if _, ok := db.Lookup("250.0.0.1:4001"); ok {
		t.Error("unallocated prefix resolved")
	}
}

func TestConcurrentAllocate(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	addrs := make([][]string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				addr, err := db.Allocate(simnet.RegionUS)
				if err != nil {
					t.Errorf("Allocate: %v", err)
					return
				}
				addrs[g] = append(addrs[g], addr)
			}
		}(g)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, group := range addrs {
		for _, a := range group {
			if seen[a] {
				t.Fatalf("concurrent duplicate %s", a)
			}
			seen[a] = true
		}
	}
}

func TestAllocationSpansBlocks(t *testing.T) {
	db := New()
	// Force beyond one /8: allocate 2^24 + 1 addresses would be too slow;
	// instead verify the first-octet progression math by allocating a few
	// and parsing.
	addr, err := db.Allocate(simnet.RegionUS)
	if err != nil {
		t.Fatal(err)
	}
	var a, b, c, d, port int
	if _, err := fmt.Sscanf(addr, "%d.%d.%d.%d:%d", &a, &b, &c, &d, &port); err != nil {
		t.Fatalf("address format: %v (%s)", err, addr)
	}
	if a != 3 || port != 4001 {
		t.Errorf("first US address = %s", addr)
	}
}

// lookupNet is Lookup as it was written over package net, with the first
// octet probed in a map: the oracle Lookup is fuzzed against.
func lookupNet(addr string) (simnet.Region, bool) {
	host := addr
	if h, _, err := net.SplitHostPort(addr); err == nil {
		host = h
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return "", false
	}
	v4 := ip.To4()
	if v4 == nil {
		return "", false
	}
	for region, blocks := range countryBlocks {
		for _, b := range blocks {
			if b == v4[0] {
				return region, true
			}
		}
	}
	return "", false
}

// FuzzLookupMatchesNet checks that Lookup resolves every string as the
// net-based oracle does: v4, v6 and v4-mapped addresses, bracketed hosts,
// zones, leading zeros and addresses without a port.
func FuzzLookupMatchesNet(f *testing.F) {
	for _, s := range []string{
		"3.1.2.3:4001", "78.1.2.3", "250.0.0.1:4001", "256.1.2.3:4001",
		"::1", "2001:db8::1", "[2001:db8::1]:4001",
		"::ffff:77.1.2.3", "[::ffff:99.0.0.1]:4001", "0:0:0:0:0:ffff:4d01:0203",
		"[78.1.2.3]:4001", "[fe80::1%eth0]:4001", "fe80::1%eth0", "::ffff:78.1.2.3%eth0",
		"078.1.2.3:4001", "78.01.2.3", "::ffff:078.1.2.3",
		"78.1.2.3:", "78.1.2.3:8]0", "78.1.2.3]:80", "[78.1.2.3:80", "78.1.2.3:80:90",
		"", ":", "[]:80", "not-an-ip",
	} {
		f.Add(s)
	}
	db := New()
	f.Fuzz(func(t *testing.T, addr string) {
		region, ok := db.Lookup(addr)
		wantRegion, wantOK := lookupNet(addr)
		if region != wantRegion || ok != wantOK {
			t.Fatalf("Lookup(%q) = %q, %v; net says %q, %v", addr, region, ok, wantRegion, wantOK)
		}
	})
}
