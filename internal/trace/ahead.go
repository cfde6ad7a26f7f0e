package trace

import "errors"

const (
	// batchSize is how many entries a read-ahead goroutine hands over at a
	// time.
	batchSize = 512
	// batches is how many batches a read-ahead cycles through: the one the
	// caller reads from and two the goroutine fills ahead of it.
	batches = 3
)

// errClosed is what Read returns after Close.
var errClosed = errors.New("trace: read after Close")

// batch is a run of entries read ahead; err is what ended the stream after
// them (io.EOF or a read error), nil when more follow.
type batch struct {
	entries [batchSize]Entry
	n       int
	err     error
}

// ReadAhead reads an entry source on a goroutine of its own, up to three
// batches of 512 entries ahead of its caller, so that producing entries
// (decoding, merging, flagging) overlaps consuming them. It is the
// repository's one read-ahead: a Reader runs it over its decoder. An error
// arrives after exactly the entries before it.
//
// From NewReadAhead until Close, the source belongs to that goroutine:
// close the ReadAhead before closing the source or reading it otherwise.
type ReadAhead struct {
	// cur is the batch Read is taking entries from, i the next one.
	cur  *batch
	i    int
	pool [batches]batch
	// full carries filled batches to the caller and free returns read ones,
	// each buffered for the whole pool so that no send waits on the other
	// side; closing stop makes the goroutine exit, which it signals by
	// closing done. stop is nil while no goroutine runs.
	full, free chan *batch
	stop, done chan struct{}
}

// NewReadAhead starts reading src, whose Read returns io.EOF after its
// last entry.
func NewReadAhead(src interface{ Read() (Entry, error) }) *ReadAhead {
	r := new(ReadAhead)
	r.start(func(e *Entry) (err error) {
		*e, err = src.Read()
		return err
	})
	return r
}

// start starts the goroutine that fills batches with next, one entry per
// call, until next returns an error. It expects no goroutine to run.
func (r *ReadAhead) start(next func(*Entry) error) {
	r.cur, r.i = &r.pool[0], 0
	r.cur.n, r.cur.err = 0, nil
	r.full, r.free = make(chan *batch, batches), make(chan *batch, batches)
	r.stop, r.done = make(chan struct{}), make(chan struct{})
	for i := 1; i < batches; i++ {
		r.free <- &r.pool[i]
	}
	go fill(next, r.full, r.free, r.stop, r.done)
}

// halt stops the goroutine, if one runs, and waits for it to exit; it
// finishes the batch it is filling first. Read then returns err.
func (r *ReadAhead) halt(err error) {
	if r.stop != nil {
		close(r.stop)
		<-r.done
		r.stop = nil
	}
	r.cur, r.i = &r.pool[0], 0
	r.cur.n, r.cur.err = 0, err
}

// Read returns the next entry, or the source's error once its entries are
// out: io.EOF at the end. Once it has returned an error it returns the
// same error until Close.
func (r *ReadAhead) Read() (Entry, error) {
	for r.i == r.cur.n {
		if r.cur.err != nil {
			return Entry{}, r.cur.err
		}
		r.free <- r.cur
		r.cur, r.i = <-r.full, 0
	}
	e := r.cur.entries[r.i]
	r.i++
	return e, nil
}

// Close stops the goroutine and waits for it to exit, so the source is
// read at most to the end of the batch being filled. Read then fails.
// Closing twice does nothing more.
func (r *ReadAhead) Close() error {
	r.halt(errClosed)
	return nil
}

// fill is the read-ahead goroutine: it fills free batches with next and
// passes them on through full, until next fails or stop is closed, then
// closes done.
func fill(next func(*Entry) error, full chan<- *batch, free <-chan *batch, stop, done chan struct{}) {
	defer close(done)
	for {
		var b *batch
		select {
		case b = <-free:
		case <-stop:
			return
		}
		b.n, b.err = 0, nil
		for b.n < batchSize {
			if b.err = next(&b.entries[b.n]); b.err != nil {
				break
			}
			b.n++
		}
		select {
		case full <- b:
		case <-stop:
			return
		}
		if b.err != nil {
			return
		}
	}
}
