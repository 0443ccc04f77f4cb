package store

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"maps"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"

	"sp2bench/internal/rdf"
)

// The parallel N-Triples ingest path. The input is split into chunks at
// line boundaries by the reading goroutine; GOMAXPROCS workers parse
// their chunks and intern terms through a striped interner (per-stripe
// maps, terms routed by hash, so workers rarely contend on the same
// lock); a final pass merges the stripes into the store's dictionary
// and rewrites the provisional IDs. Triple order before Freeze and
// dictionary ID assignment are scheduling-dependent — both are
// unobservable: Freeze sorts and deduplicates, and IDs are opaque.

const (
	// loadChunkBytes is the target chunk handed to one parse worker.
	loadChunkBytes = 256 << 10
	// maxLineBytes bounds a single statement, matching the sequential
	// reader's bufio.Scanner limit (abstracts are ~150 words, far under).
	maxLineBytes = 1 << 20
)

// Ingest reads every triple from an N-Triples reader into the store
// without freezing it, sharding parse and intern work across
// GOMAXPROCS workers. It returns the number of parsed statements.
// Callers that want a queryable store use Load, which freezes too; the
// harness calls Ingest and Freeze separately to time the two phases.
func (s *Store) Ingest(r io.Reader) (int, error) {
	if s.frozen {
		panic("store: Ingest after Freeze")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}

	var (
		stop     = make(chan struct{})
		stopOnce sync.Once
		errMu    sync.Mutex
		loadErr  error
	)
	fail := func(err error) {
		errMu.Lock()
		if loadErr == nil {
			loadErr = err
		}
		errMu.Unlock()
		stopOnce.Do(func() { close(stop) })
	}

	type chunk struct {
		data      []byte
		firstLine int // 1-based line number of data's first line
	}
	chunks := make(chan chunk, workers)
	in := newInterner(s.dict, workers)
	parsed := make([][]EncTriple, workers)
	counts := make([]int, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []EncTriple
			for c := range chunks {
				select {
				case <-stop:
					continue // drain without parsing
				default:
				}
				data, line := c.data, c.firstLine
				for len(data) > 0 {
					var raw []byte
					if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
						raw, data = data[:nl], data[nl+1:]
					} else {
						raw, data = data, nil
					}
					raw = bytes.TrimSpace(raw)
					if len(raw) == 0 || raw[0] == '#' {
						line++
						continue
					}
					if len(raw) > maxLineBytes {
						fail(&rdf.ParseError{Line: line, Msg: fmt.Sprintf("statement exceeds %d bytes", maxLineBytes)})
						break
					}
					t, err := rdf.ParseTriple(string(raw), line)
					if err != nil {
						fail(err)
						break
					}
					local = append(local, EncTriple{
						in.intern(t.S), in.intern(t.P), in.intern(t.O),
					})
					counts[w]++
					line++
				}
			}
			parsed[w] = local
		}()
	}

	// Read chunks in this goroutine, cutting at the last newline of each
	// block and carrying the partial tail line into the next block.
	var carry []byte
	line := 1
reading:
	for {
		block := make([]byte, len(carry), len(carry)+loadChunkBytes)
		copy(block, carry)
		n, rerr := io.ReadFull(r, block[len(carry):cap(block)])
		block = block[:len(carry)+n]
		eof := rerr == io.EOF || rerr == io.ErrUnexpectedEOF
		if rerr != nil && !eof {
			fail(rerr)
			break
		}
		var out []byte
		if eof {
			out, carry = block, nil
		} else if cut := bytes.LastIndexByte(block, '\n'); cut >= 0 {
			out, carry = block[:cut+1], block[cut+1:]
		} else {
			if len(block) > maxLineBytes {
				fail(&rdf.ParseError{Line: line, Msg: fmt.Sprintf("statement exceeds %d bytes", maxLineBytes)})
				break
			}
			carry = block
			continue
		}
		if len(out) > 0 {
			select {
			case chunks <- chunk{data: out, firstLine: line}:
				line += bytes.Count(out, []byte{'\n'})
			case <-stop:
				break reading
			}
		}
		if eof {
			break
		}
	}
	close(chunks)
	wg.Wait()

	total := 0
	for _, n := range counts {
		total += n
	}
	if loadErr != nil {
		return total, loadErr
	}

	// Merge the stripes into the dictionary and rewrite the provisional
	// IDs the workers assigned.
	start := len(s.triples)
	for _, local := range parsed {
		s.triples = append(s.triples, local...)
	}
	remap := in.finalize()
	added := s.triples[start:]
	var rw sync.WaitGroup
	per := (len(added) + workers - 1) / workers
	for lo := 0; lo < len(added); lo += per {
		hi := lo + per
		if hi > len(added) {
			hi = len(added)
		}
		part := added[lo:hi]
		rw.Add(1)
		go func() {
			defer rw.Done()
			for i, t := range part {
				part[i] = EncTriple{remap(t[0]), remap(t[1]), remap(t[2])}
			}
		}()
	}
	rw.Wait()
	return total, nil
}

// interner is the striped intern stage of the parallel loader. Terms
// already present in the base dictionary resolve lock-free (the base is
// read-only for the duration of a load); new terms are routed to one of
// a power-of-two number of stripes by hash, each with its own lock, map
// and term list. Stripe-local indexes are encoded into provisional IDs
// above the base dictionary; finalize assigns each stripe a contiguous
// final ID range, appends the stripes to the base dictionary, and
// returns the provisional→final mapping (pure arithmetic, no table).
type interner struct {
	base    *Dict
	baseLen ID
	shift   uint // log2(len(stripes))
	seed    maphash.Seed
	stripes []internStripe
	offsets []ID // set by finalize
}

type internStripe struct {
	mu    sync.Mutex
	ids   map[rdf.Term]uint32 // term -> stripe-local index
	terms []rdf.Term
}

func newInterner(base *Dict, workers int) *interner {
	n := 1
	for n < workers && n < 64 {
		n <<= 1
	}
	in := &interner{
		base:    base,
		baseLen: ID(base.Len()),
		shift:   uint(bits.TrailingZeros(uint(n))),
		seed:    maphash.MakeSeed(),
		stripes: make([]internStripe, n),
	}
	for i := range in.stripes {
		in.stripes[i].ids = make(map[rdf.Term]uint32, 1024)
	}
	return in
}

func (in *interner) hash(t rdf.Term) uint64 {
	var h maphash.Hash
	h.SetSeed(in.seed)
	h.WriteByte(byte(t.Kind))
	h.WriteString(t.Value)
	h.WriteByte(0)
	h.WriteString(t.Datatype)
	h.WriteByte(0)
	h.WriteString(t.Lang)
	return h.Sum64()
}

// intern returns the term's ID: the final ID for base-dictionary terms,
// a provisional ID (to be rewritten by finalize's remap) otherwise.
func (in *interner) intern(t rdf.Term) ID {
	if id, ok := in.base.ids[t]; ok {
		return id
	}
	si := uint32(in.hash(t)) & (uint32(len(in.stripes)) - 1)
	st := &in.stripes[si]
	st.mu.Lock()
	local, ok := st.ids[t]
	if !ok {
		local = uint32(len(st.terms))
		st.terms = append(st.terms, t)
		st.ids[t] = local
	}
	st.mu.Unlock()
	return in.baseLen + 1 + ID(local<<in.shift+si)
}

// finalize appends the stripes' terms to the base dictionary (stripe 0
// first, each stripe keeping its arrival order) and returns the
// provisional→final ID mapping. Must be called exactly once, after all
// intern calls have completed.
//
// A new term's strings are substrings of the line it was parsed from:
// finalize stores copies, so that no term pins its line for the store's
// life, and literals of one datatype share one copy of it. The lookup
// map is rebuilt sized for exactly the base's and the new terms, as a
// snapshot load sizes it: a map grown by doubling can hold up to twice
// the buckets it needs for the store's life.
//
// sp2b:mutates-store merges worker stripes into the base dictionary at the end of Ingest
func (in *interner) finalize() func(ID) ID {
	n := len(in.base.terms)
	for i := range in.stripes {
		n += len(in.stripes[i].terms)
	}
	ids := make(map[rdf.Term]ID, n)
	maps.Copy(ids, in.base.ids)
	terms := slices.Grow(in.base.terms, n-len(in.base.terms))
	datatypes := map[string]string{}
	in.offsets = make([]ID, len(in.stripes))
	next := in.baseLen
	for i := range in.stripes {
		in.offsets[i] = next
		for _, t := range in.stripes[i].terms {
			dt, ok := datatypes[t.Datatype]
			if !ok {
				dt = strings.Clone(t.Datatype)
				datatypes[dt] = dt
			}
			t = rdf.Term{Kind: t.Kind, Value: strings.Clone(t.Value), Datatype: dt, Lang: strings.Clone(t.Lang)}
			terms = append(terms, t)
			next++
			ids[t] = next
		}
	}
	in.base.ids, in.base.terms = ids, terms
	mask := uint32(len(in.stripes)) - 1
	baseLen, shift, offsets := in.baseLen, in.shift, in.offsets
	return func(p ID) ID {
		if p <= baseLen {
			return p
		}
		q := uint32(p - baseLen - 1)
		return offsets[q&mask] + ID(q>>shift) + 1
	}
}
