package ingest

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bitswapmon/internal/trace"
)

// OpenInputs opens each path as a time-ordered entry source: directories
// are segment stores, *.csv files are trace CSV exports, anything else is a
// flat binary trace. Each input is one monitor's stream; merge them with
// NewStreamUnifier. The returned cleanup closes every opened file, reader
// and iterator, each reader before its file.
//
// A store is refused when reading it would silently yield less than was
// captured: when it has no sealed segments at all, or when it holds segment
// files without a valid footer (a crash or truncation leaves those; reading
// around them would drop their entries and pass a partial trace off as
// complete).
func OpenInputs(paths []string) ([]EntrySource, func(), error) {
	var sources []EntrySource
	var closers []io.Closer
	cleanup := func() { // last opened first, so a reader closes before its file
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i].Close()
		}
	}
	fail := func(err error) ([]EntrySource, func(), error) {
		cleanup()
		return nil, nil, err
	}
	for _, path := range paths {
		st, err := os.Stat(path)
		if err != nil {
			return fail(fmt.Errorf("ingest: %w", err))
		}
		if st.IsDir() {
			store, err := OpenSegmentStore(path, SegmentOptions{})
			if err != nil {
				return fail(fmt.Errorf("ingest: open store %s: %w", path, err))
			}
			if store.Totals().Entries == 0 {
				return fail(fmt.Errorf("ingest: open store %s: no sealed segments", path))
			}
			if orphans := store.Skipped(); len(orphans) > 0 {
				return fail(fmt.Errorf("ingest: store %s has %d segment file(s) without a valid footer (crash leftovers or corruption, e.g. %s); remove or repair them first", path, len(orphans), orphans[0]))
			}
			it, err := store.Query(time.Time{}, time.Time{}, nil)
			if err != nil {
				return fail(err)
			}
			sources = append(sources, it)
			closers = append(closers, it)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return fail(fmt.Errorf("ingest: %w", err))
		}
		closers = append(closers, f)
		var src EntrySource
		if strings.EqualFold(filepath.Ext(path), ".csv") {
			src, err = trace.NewCSVReader(f)
		} else {
			var r *trace.Reader
			if r, err = trace.NewReader(f); err == nil {
				src = r
				closers = append(closers, r)
			}
		}
		if err != nil {
			return fail(fmt.Errorf("ingest: read %s: %w", path, err))
		}
		sources = append(sources, src)
	}
	return sources, cleanup, nil
}
