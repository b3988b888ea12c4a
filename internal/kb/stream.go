package kb

// The one CSR builder. Every KB that is not reopened from a snapshot or
// patched from another KB is made here, by the KB recipe of Section 4 of the
// paper: deduplicate, count base-fact frequencies, materialize p⁻¹(o,s) for
// the prominent objects. The work is split in two halves:
//
//	ingest  validates each triple, interns its predicate, dictionary-encodes
//	        subject and object on arrival and buffers the 12-byte (p,s,o)
//	        record; a full buffer is sorted (two halves on two goroutines),
//	        deduplicated in the halves' merge and spilled to a temp run file
//	finish  sorts what is buffered the same way (or spills it, when earlier
//	        runs exist) and walks the merged, globally deduplicated (p,s,o)
//	        stream once:
//	  walk     counts base facts and entity frequencies (the prominence
//	           input) and hands each predicate's (s,o) run to a pool of
//	           GOMAXPROCS packers, which build its CSR index
//	  inverse  once the packers drain, filters each p⁻¹ from p's packed runs:
//	           its pso is p's pos restricted to the prominent entity
//	           objects, its pos is p's pso with the same restriction
//
// BuildStreamingWith feeds the ingest (parsing ahead on a second goroutine
// when the source is an *rdf.Reader) with the spill threshold of its
// StreamConfig, for inputs whose raw triple slice does not fit
// comfortably in memory (DBpedia-class N-Triples dumps): during the walk
// only runs of the predicates being packed are in memory, their buffers
// about three times the largest predicate's run in total, 8 B a fact,
// whatever GOMAXPROCS (walkAndPack), so peak memory is the dictionary, the
// final CSR arrays and those buffers. Builder and FromTriples (builder.go)
// are the same ingest with a threshold that is never reached. Whether runs
// were spilled, and how many packers ran, is invisible in the result: the
// same dedup, the same (p,s,o) global order, inverse-predicate ids in base
// order, element-identical indexes and therefore byte-identical snapshots
// (asserted by TestBuildStreamingMatchesInMemory and, with the SHA-256 pin,
// by the root package's TestSnapshotBytePin). The adjacency arena is never
// built here; derived.go makes it on first touch.

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"

	"github.com/remi-kb/remi/internal/parsort"
	"github.com/remi-kb/remi/internal/rdf"
)

// blockSource is implemented by *rdf.Reader, which parses a line-aligned
// block of input at a time into a buffer the caller hands it.
type blockSource interface {
	ReadBlock(*rdf.Block) error
}

// TripleSource yields triples one at a time, returning io.EOF after the
// last; *rdf.Reader implements it.
type TripleSource interface {
	Read() (rdf.Triple, error)
}

// StreamConfig tunes BuildStreamingWith.
type StreamConfig struct {
	// MaxBufferedTriples is the spill threshold: at most this many encoded
	// triples are held before a sorted run is written to disk. Zero means
	// DefaultMaxBufferedTriples. Tests use tiny values to force multi-run
	// merges on small inputs.
	MaxBufferedTriples int
	// TmpDir receives the run files (removed on return); empty means the
	// system temp dir.
	TmpDir string
}

// DefaultMaxBufferedTriples bounds the encoded-triple buffer at 4M records
// (48 MB), a small fraction of what the triples' CSR indexes will occupy.
const DefaultMaxBufferedTriples = 4 << 20

// BuildStreaming builds a KB from a triple stream with bounded buffering;
// see BuildStreamingWith.
func BuildStreaming(src TripleSource, opts Options) (*KB, error) {
	return BuildStreamingWith(src, opts, StreamConfig{})
}

// BuildStreamingWith builds a KB from a triple stream without ever holding
// the full triple list in memory, spilling sorted runs to cfg.TmpDir and
// merging them. The result is element-identical to
// FromTriples(allTriples, opts) — same ids, same indexes, byte-identical
// snapshots.
func BuildStreamingWith(src TripleSource, opts Options, cfg StreamConfig) (*KB, error) {
	maxBuf := cfg.MaxBufferedTriples
	if maxBuf <= 0 {
		maxBuf = DefaultMaxBufferedTriples
	}
	in := newIngest(maxBuf, cfg.TmpDir)
	defer in.removeRuns()

	if bs, ok := src.(blockSource); ok {
		if err := in.addBlocks(bs); err != nil {
			return nil, err
		}
		return in.finish(opts)
	}
	for {
		tr, err := src.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := in.add(tr); err != nil {
			return nil, err
		}
	}
	return in.finish(opts)
}

// addBlocks parses on a second goroutine while this one encodes the blocks
// in input order, so ids are those of a plain read loop, and the first error
// in input order wins. Four blocks circulate (parsing, two queued so that an
// uneven block does not stall either side, encoding), so the parser always
// finds a free one; the ingest copies every term it keeps, so a block can go
// back once encoded. The parser has exited when addBlocks returns.
func (in *ingest) addBlocks(src blockSource) error {
	type parsed struct {
		b   *rdf.Block
		err error
	}
	full := make(chan parsed, 2)
	free := make(chan *rdf.Block, 4)
	for range cap(free) {
		free <- new(rdf.Block)
	}
	stop, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			b := <-free
			err := src.ReadBlock(b)
			select {
			case full <- parsed{b, err}:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-exited
	}()
	for {
		p := <-full
		for _, tr := range p.b.Triples {
			if err := in.add(tr); err != nil {
				return err
			}
		}
		if p.err == io.EOF {
			return nil
		}
		if p.err != nil {
			return p.err
		}
		free <- p.b
	}
}

// triple is one dictionary-encoded fact, the record the ingest buffers and
// the run files store.
type triple struct {
	s EntID
	p PredID
	o EntID
}

// ingest accumulates encoded triples for one build. Terms and predicates
// take ids in arrival order, so the ids — and with them every index and
// snapshot byte — depend on the input order alone, never on maxBuf.
type ingest struct {
	dict      *rdf.Dictionary
	predNames []string
	predIdx   map[string]PredID
	buf       []triple
	maxBuf    int // spill threshold, in triples
	tmpDir    string
	runs      []*os.File // spilled runs, each sorted and deduplicated
}

func newIngest(maxBuf int, tmpDir string) *ingest {
	return &ingest{
		dict:    rdf.NewDictionary(),
		predIdx: make(map[string]PredID),
		maxBuf:  maxBuf,
		tmpDir:  tmpDir,
	}
}

// add validates, encodes and buffers one triple, spilling a run when the
// buffer reaches the threshold. Predicates must be IRIs; literal subjects
// are rejected.
func (in *ingest) add(tr rdf.Triple) error {
	if tr.P.Kind != rdf.IRI {
		return fmt.Errorf("kb: predicate must be an IRI: %s", tr)
	}
	if tr.S.Kind == rdf.Literal {
		return fmt.Errorf("kb: literal subject: %s", tr)
	}
	p, ok := in.predIdx[tr.P.Value]
	if !ok {
		name := strings.Clone(tr.P.Value)
		in.predNames = append(in.predNames, name)
		p = PredID(len(in.predNames))
		in.predIdx[name] = p
	}
	s := EntID(in.dict.Encode(tr.S))
	o := EntID(in.dict.Encode(tr.O))
	in.buf = append(in.buf, triple{s, p, o})
	if len(in.buf) >= in.maxBuf {
		return in.spill()
	}
	return nil
}

// spill writes the buffer, sorted and deduplicated, to a new run file.
func (in *ingest) spill() error {
	lo, hi := parsort.Halves(in.buf, cmpTriple)
	f, err := os.CreateTemp(in.tmpDir, "kb-stream-run-*")
	if err != nil {
		return err
	}
	in.runs = append(in.runs, f)
	w := newRunWriter(f)
	err = mergeHalves(lo, hi, func(tr triple) error {
		w.write(tr)
		return w.err
	})
	if err == nil {
		err = w.flush()
	}
	if err != nil {
		return fmt.Errorf("kb: spill run: %w", err)
	}
	in.buf = in.buf[:0]
	return nil
}

func (in *ingest) removeRuns() {
	for _, f := range in.runs {
		f.Close()
		os.Remove(f.Name())
	}
}

// finish indexes the accumulated triples; the ingest must not be used
// afterwards. It can fail only on run-file I/O, so never when nothing was
// spilled.
func (in *ingest) finish(opts Options) (*KB, error) {
	walk := func(f func(triple) error) error { return eachMerged(in.runs, f) }
	if len(in.runs) == 0 {
		// The whole input fit in the buffer: walk it in place, no disk
		// round-trip.
		lo, hi := parsort.Halves(in.buf, cmpTriple)
		walk = func(f func(triple) error) error { return mergeHalves(lo, hi, f) }
	} else {
		if len(in.buf) > 0 {
			if err := in.spill(); err != nil {
				return nil, err
			}
		}
		in.buf = nil // the walk reads the run files; the packers get this memory
	}

	nPred := len(in.predNames)
	k := &KB{
		dict:      in.dict,
		predNames: in.predNames,
		predIdx:   in.predIdx,
		baseOf:    make([]PredID, nPred),
		preds:     make([]predIndex, nPred),
		adj:       new(adjacency),
	}
	terms := in.dict.Terms()
	k.kind = make([]rdf.Kind, len(terms))
	for i, t := range terms {
		k.kind[i] = t.Kind
	}
	k.entFreq = make([]uint32, len(terms))
	if err := k.walkAndPack(walk); err != nil {
		return nil, err
	}
	k.nFacts = k.nBase
	if opts.InverseTopFraction > 0 && len(terms) > 0 {
		k.addInverses(opts.InverseTopFraction)
	}

	k.predIDs = make([]PredID, len(k.predNames))
	for i := range k.predIDs {
		k.predIDs[i] = PredID(i + 1)
	}
	if opts.TypePredicate != "" {
		k.typePred = k.predIdx[opts.TypePredicate]
	}
	if opts.LabelPredicate != "" {
		k.lblPred = k.predIdx[opts.LabelPredicate]
	}
	return k, nil
}

// walkAndPack walks the merged, globally deduplicated (p,s,o) stream once.
// It counts base facts and entity frequencies (the prominence input) and
// hands each predicate's run, which the stream's order makes contiguous and
// (S,O)-sorted, to one of GOMAXPROCS packers, which fill k.preds. The runs
// in flight are bounded by their buffers' capacity, not by their count:
// after handing a run over, the walk waits until the runs being packed hold
// no more than the largest buffer so far, and a packed run's buffer is kept
// for reuse only while the kept buffers hold no more than that either. So
// the run buffers total about three times the largest run (in flight, kept
// and the one the walk fills), 8 B a fact, whatever GOMAXPROCS. It returns
// once every packer has exited, on error too.
func (k *KB) walkAndPack(walk func(func(triple) error) error) error {
	type job struct {
		p   PredID
		run []uint64
	}
	var (
		mu       sync.Mutex
		packed   = sync.NewCond(&mu)
		largest  int        // capacity of the largest run buffer so far
		inFlight int        // capacity of the runs handed over, not yet packed
		free     [][]uint64 // packed runs' buffers, kept for reuse
		freeCap  int        // their capacity
	)
	jobs := make(chan job)
	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	wg.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			for j := range jobs {
				k.preds[j.p-1] = packRun(j.run)
				mu.Lock()
				inFlight -= cap(j.run)
				if freeCap+cap(j.run) <= largest {
					free = append(free, j.run[:0])
					freeCap += cap(j.run)
				}
				packed.Signal()
				mu.Unlock()
			}
		}()
	}
	// handOver passes a filled run to a packer and returns the buffer for
	// the next run, once the runs in flight are within bounds.
	handOver := func(j job) []uint64 {
		mu.Lock()
		largest = max(largest, cap(j.run))
		inFlight += cap(j.run)
		mu.Unlock()
		jobs <- j
		mu.Lock()
		defer mu.Unlock()
		for inFlight > largest {
			packed.Wait()
		}
		if len(free) == 0 {
			return nil
		}
		run := free[len(free)-1]
		free = free[:len(free)-1]
		freeCap -= cap(run)
		return run
	}
	var cur PredID
	var run []uint64
	err := walk(func(tr triple) error {
		k.nBase++
		k.entFreq[tr.s-1]++
		k.entFreq[tr.o-1]++
		if tr.p != cur {
			if cur != 0 {
				run = handOver(job{cur, run})
			}
			cur = tr.p
		}
		run = append(run, runKey(tr.s, tr.o))
		return nil
	})
	if err == nil && cur != 0 {
		jobs <- job{cur, run}
	}
	close(jobs)
	wg.Wait()
	return err
}

// addInverses materializes p⁻¹(o,s) for every base fact p(s,o) whose object
// is among the top frac of the entity frequency ranking, filtering each
// inverse from its base predicate's packed runs (filterInverse). Inverse
// ids follow base order, after every base predicate.
func (k *KB) addInverses(frac float64) {
	// RDF compliance: inverses are only defined for entity objects
	// (footnote 3 of the paper).
	ids := slices.DeleteFunc(prominentIDs(k.entFreq, frac), func(e EntID) bool {
		return k.kind[e-1] == rdf.Literal
	})
	keep := NewEntSet(ids, len(k.entFreq))
	for p := range len(k.preds) {
		ix, ok := filterInverse(&k.preds[p], keep)
		if !ok {
			continue
		}
		name := k.predNames[p] + InverseMarker
		k.predNames = append(k.predNames, name)
		k.baseOf = append(k.baseOf, PredID(p+1))
		k.predIdx[name] = PredID(len(k.predNames))
		k.preds = append(k.preds, ix)
		k.nFacts += len(ix.psoVal)
	}
}

// mergeHalves calls f on every triple of the merge of the buffer's two
// (p,s,o)-sorted halves (parsort.Halves), in order and each once: the merge
// is the buffer's dedup.
func mergeHalves(lo, hi []triple, f func(triple) error) error {
	var last triple // ids are 1-based, so no stored triple is zero
	for i, j := 0, 0; i < len(lo) || j < len(hi); {
		var tr triple
		if j == len(hi) || (i < len(lo) && cmpTriple(lo[i], hi[j]) <= 0) {
			tr, i = lo[i], i+1
		} else {
			tr, j = hi[j], j+1
		}
		if tr == last {
			continue
		}
		last = tr
		if err := f(tr); err != nil {
			return err
		}
	}
	return nil
}

func cmpTriple(a, b triple) int {
	if a.p != b.p {
		return int(a.p) - int(b.p)
	}
	if a.s != b.s {
		return int(a.s) - int(b.s)
	}
	return int(a.o) - int(b.o)
}

// runRecordSize is the on-disk size of one encoded triple: three uint32s
// (p, s, o), little-endian.
const runRecordSize = 12

// runWriter buffers encoded triples into a run file.
type runWriter struct {
	f   *os.File
	buf []byte
	err error
}

func newRunWriter(f *os.File) *runWriter {
	return &runWriter{f: f, buf: make([]byte, 0, 1<<16)}
}

func (w *runWriter) write(tr triple) {
	if w.err != nil {
		return
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(tr.p))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(tr.s))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(tr.o))
	if len(w.buf) >= 1<<16-runRecordSize {
		_, w.err = w.f.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *runWriter) flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.f.Write(w.buf)
		w.buf = w.buf[:0]
	}
	return w.err
}

// runReader streams a run file back with its own read buffer.
type runReader struct {
	f    *os.File
	buf  []byte
	pos  int
	fill int
	cur  triple
	done bool
}

func newRunReader(f *os.File) (*runReader, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	r := &runReader{f: f, buf: make([]byte, 1<<16)}
	if err := r.advance(); err != nil {
		return nil, err
	}
	return r, nil
}

// advance loads the next record into cur, setting done at EOF. A trailing
// partial record is corruption (runs are written whole), not a clean end.
func (r *runReader) advance() error {
	if r.fill-r.pos < runRecordSize {
		n := copy(r.buf, r.buf[r.pos:r.fill])
		r.pos, r.fill = 0, n
		for r.fill < runRecordSize {
			m, err := r.f.Read(r.buf[r.fill:])
			r.fill += m
			if err == io.EOF {
				if r.fill == 0 {
					r.done = true
					return nil
				}
				if r.fill < runRecordSize {
					return fmt.Errorf("kb: truncated run file %s", r.f.Name())
				}
				break
			}
			if err != nil {
				return err
			}
		}
	}
	b := r.buf[r.pos:]
	r.cur = triple{
		p: PredID(binary.LittleEndian.Uint32(b[0:])),
		s: EntID(binary.LittleEndian.Uint32(b[4:])),
		o: EntID(binary.LittleEndian.Uint32(b[8:])),
	}
	r.pos += runRecordSize
	return nil
}

// runHeap is a min-heap of run readers keyed by their current record; the
// k-way merge pops the global minimum and re-pushes the advanced reader.
type runHeap []*runReader

func (h runHeap) Len() int           { return len(h) }
func (h runHeap) Less(i, j int) bool { return cmpTriple(h[i].cur, h[j].cur) < 0 }
func (h runHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)        { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() (x any)      { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }

// eachMerged yields the globally merged, deduplicated (p,s,o)-ordered triple
// stream of the spilled run files, a k-way merge.
func eachMerged(runs []*os.File, f func(triple) error) error {
	h := make(runHeap, 0, len(runs))
	for _, rf := range runs {
		r, err := newRunReader(rf)
		if err != nil {
			return err
		}
		if !r.done {
			h = append(h, r)
		}
	}
	heap.Init(&h)
	var last triple // ids are 1-based, so no stored triple is zero
	for len(h) > 0 {
		r := h[0]
		tr := r.cur
		if err := r.advance(); err != nil {
			return err
		}
		if r.done {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
		// Runs are deduplicated individually; the same triple can still
		// appear in several runs, so dedup across the merge too.
		if tr != last {
			if err := f(tr); err != nil {
				return err
			}
			last = tr
		}
	}
	return nil
}
