package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"time"

	"bitswapmon/internal/ingest"
	"bitswapmon/internal/trace"
)

// The correctness checks run after the timed region. An operation is one
// entry expected at the output or one check; failed_share is failed ÷
// attempted over both kinds.

// check counts one correctness check and records why it failed.
func (v *env) check(ok bool, format string, args ...any) {
	v.res.Attempted++
	if !ok {
		v.res.Failed++
		v.res.Failures = append(v.res.Failures, fmt.Sprintf(format, args...))
	}
}

// checkPipeline verifies that no stage lost or gained entries — expected
// entries tapped = store totals = entries from Query = entries out of the
// unifier = the summary report's count — then unifies the stores a second
// time to hash the unified CSV and to compare the flags on its first
// entries with the batch trace.Unify oracle. It returns each store's
// queried entries.
func (v *env) checkPipeline(role string, stores []*ingest.SegmentStore, expected, unified, summarized int) ([][]trace.Entry, error) {
	v.res.Attempted += expected
	v.res.Failed += max(expected-summarized, summarized-expected)

	var totals, queried int
	raw := make([][]trace.Entry, len(stores))
	dirs := make([]string, len(stores))
	for i, s := range stores {
		totals += s.Totals().Entries
		v.res.Layers["ingest.segments"] += float64(len(s.Segments()))
		it, err := s.Query(time.Time{}, time.Time{}, nil)
		if err != nil {
			return nil, err
		}
		raw[i], err = ingest.Drain(it)
		it.Close()
		if err != nil {
			return nil, err
		}
		queried += len(raw[i])
		dirs[i] = v.storeDir(role, monitorNames[i])
	}
	v.check(totals == expected, "store totals %d, expected %d", totals, expected)
	v.check(queried == expected, "query returned %d entries, expected %d", queried, expected)
	v.check(unified == expected, "unifier emitted %d entries, expected %d", unified, expected)
	v.check(summarized == expected, "summary report counted %d entries, expected %d", summarized, expected)

	var err error
	if v.res.DiskBytes, err = dirBytes(dirs...); err != nil {
		return nil, err
	}
	v.res.EntriesStored = int64(totals)

	sources := make([]ingest.EntrySource, len(raw))
	for i := range raw {
		sources[i] = ingest.SliceSource(raw[i])
	}
	u := ingest.NewStreamUnifier(sources...)
	sum := sha256.New()
	csv := trace.NewCSVWriter(sum)
	head := make([]trace.Entry, 0, v.sz.OracleEntries)
	var again, flagged int
	for {
		e, err := u.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := csv.Write(e); err != nil {
			return nil, err
		}
		again++
		if e.IsDuplicate() {
			flagged++
		}
		if len(head) < cap(head) {
			head = append(head, e)
		}
	}
	if err := csv.Close(); err != nil {
		return nil, err
	}
	v.res.OutputSHA256 = hex.EncodeToString(sum.Sum(nil))
	v.res.Layers["ingest.dup_flagged_share"] = ratio(float64(flagged), float64(again))
	v.check(again == expected, "second unify pass emitted %d entries, expected %d", again, expected)

	if len(head) > 0 {
		// A flag depends only on earlier entries, so the oracle needs each
		// monitor's entries up to the last compared timestamp and no more.
		cut := head[len(head)-1].Timestamp
		prefixes := make([][]trace.Entry, len(raw))
		for i, r := range raw {
			prefixes[i] = r[:sort.Search(len(r), func(j int) bool { return r[j].Timestamp.After(cut) })]
		}
		oracle := trace.Unify(prefixes...)
		v.check(len(oracle) >= len(head) && sameEntries(oracle[:len(head)], head),
			"flags on the first %d unified entries differ from trace.Unify", len(head))
	}
	return raw, nil
}

// sameEntries reports whether a and b hold the same entries in the same
// order, flags included.
func sameEntries(a, b []trace.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !x.Timestamp.Equal(y.Timestamp) || x.Monitor != y.Monitor || x.NodeID != y.NodeID ||
			x.Addr != y.Addr || x.Type != y.Type || !x.CID.Equal(y.CID) || x.Flags != y.Flags {
			return false
		}
	}
	return true
}
