package store

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"

	"sp2bench/internal/rdf"
)

// The parallel N-Triples ingest path. The input is split into chunks at
// line boundaries by the reading goroutine; GOMAXPROCS workers parse
// their chunks, and each interns its terms into a dictionary of its own,
// without a lock; one pass then merges the workers' dictionaries into
// the store's (see Dict.absorb) and rewrites each worker's triples into
// the merged IDs. The triple order and the merged IDs both follow
// scheduling, and neither is observable: Freeze numbers the dictionary
// in Compare order, then sorts and deduplicates the triples.

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
	dicts := make([]*Dict, workers)
	parsed := make([][]EncTriple, workers)
	counts := make([]int, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			dict := NewDict()
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
						dict.Intern(t.S), dict.Intern(t.P), dict.Intern(t.O),
					})
					counts[w]++
					line++
				}
			}
			dicts[w], parsed[w] = dict, local
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

	// Merge the workers' dictionaries into the store's, and append each
	// worker's triples in the merged IDs.
	remaps := s.dict.absorb(dicts)
	s.triples = slices.Grow(s.triples, total)
	for w, local := range parsed {
		remap := remaps[w]
		for _, t := range local {
			s.triples = append(s.triples, EncTriple{remap[t[0]], remap[t[1]], remap[t[2]]})
		}
	}
	return total, nil
}

// absorb merges the workers' dictionaries into d and returns, per
// worker, the map from its IDs to d's: remaps[w][id] is d's ID for
// dicts[w]'s term id.
//
// A worker's terms are substrings of the lines it parsed: absorb stores
// copies, so that no term pins its line for the store's life, and
// literals of one datatype share one copy of it. Freeze rebuilds the
// lookup map sized for exactly the dictionary's terms (see
// canonicalize).
func (d *Dict) absorb(dicts []*Dict) [][]ID {
	datatypes := map[string]string{}
	remaps := make([][]ID, len(dicts))
	for w, local := range dicts {
		remap := make([]ID, len(local.terms)+1)
		for i, t := range local.terms {
			id, ok := d.Lookup(t)
			if !ok {
				dt, ok := datatypes[t.Datatype]
				if !ok {
					dt = strings.Clone(t.Datatype)
					datatypes[dt] = dt
				}
				id = d.Intern(rdf.Term{Kind: t.Kind, Value: strings.Clone(t.Value), Datatype: dt, Lang: strings.Clone(t.Lang)})
			}
			remap[i+1] = id
		}
		remaps[w] = remap
	}
	return remaps
}
