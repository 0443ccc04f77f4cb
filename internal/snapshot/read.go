package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"sp2bench/internal/gen"
	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// Read loads a snapshot from r and rebuilds the frozen store without
// re-sorting or re-deduplicating. Section payloads are pulled off the
// stream sequentially but decoded concurrently; every length field is
// validated against the bytes actually present before it drives an
// allocation, so corrupted or truncated input returns an error — never
// a panic or an out-of-memory crash.
func Read(r io.Reader) (*store.Store, error) {
	cr := &crcReader{r: bufio.NewReaderSize(r, 1<<16)}

	var head [8]byte
	if _, err := io.ReadFull(cr, head[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if !IsSnapshot(head[:]) {
		return nil, fmt.Errorf("snapshot: bad magic %q", head[:])
	}
	var verBuf [4]byte
	if _, err := io.ReadFull(cr, verBuf[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading version: %w", err)
	}
	if v := binary.LittleEndian.Uint32(verBuf[:]); v != Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", v, Version)
	}
	termCount, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading term count: %w", err)
	}
	if termCount > math.MaxUint32-1 {
		return nil, fmt.Errorf("snapshot: term count %d exceeds the 32-bit ID space", termCount)
	}
	tripleCount, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading triple count: %w", err)
	}

	var (
		wg      sync.WaitGroup
		dict    *store.Dict
		dictErr error
		indexes [3][]store.EncTriple
		idxErr  [3]error
	)
	for _, want := range []byte{secDict, secSPO, secPOS, secOSP} {
		want := want
		payload, err := readSection(cr, want)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch want {
			case secDict:
				var terms []rdf.Term
				terms, dictErr = decodeDict(payload, termCount)
				if dictErr == nil {
					dict, dictErr = store.NewDictFromTerms(terms)
				}
			default:
				ord := store.Order(want - secSPO) // OrderSPO, OrderPOS, OrderOSP
				indexes[ord], idxErr[ord] = decodeIndex(payload, tripleCount, termCount, ord)
			}
		}()
	}

	endByte, err := cr.ReadByte()
	if err != nil {
		wg.Wait()
		return nil, fmt.Errorf("snapshot: reading end marker: %w", err)
	}
	if endByte != secEnd {
		wg.Wait()
		return nil, fmt.Errorf("snapshot: bad end marker 0x%02x", endByte)
	}
	sum := cr.sum // everything up to and including the end marker
	var crcBuf [4]byte
	if _, err := io.ReadFull(cr, crcBuf[:]); err != nil {
		wg.Wait()
		return nil, fmt.Errorf("snapshot: reading checksum: %w", err)
	}
	wg.Wait()
	if want := binary.LittleEndian.Uint32(crcBuf[:]); want != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch: file says %08x, content is %08x", want, sum)
	}
	for _, err := range []error{dictErr, idxErr[0], idxErr[1], idxErr[2]} {
		if err != nil {
			return nil, err
		}
	}
	return store.Rehydrate(dict, indexes)
}

// ReadFile loads a snapshot from path.
func ReadFile(path string) (*store.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

// OpenStore reads a store from r in either supported format, sniffing
// the snapshot magic. It returns the store, whether the input was a
// snapshot, and the statement count (parsed statements for N-Triples
// input — which can exceed the stored count when the document holds
// duplicates — or the stored triple count for snapshots).
func OpenStore(r io.Reader) (*store.Store, bool, int, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, _ := br.Peek(len(magic))
	if IsSnapshot(head) {
		st, err := Read(br)
		if err != nil {
			return nil, true, 0, err
		}
		return st, true, st.Len(), nil
	}
	st := store.New()
	n, err := st.Load(br)
	if err != nil {
		return nil, false, n, err
	}
	return st, false, n, nil
}

// OpenStoreFile is OpenStore over a file path.
func OpenStoreFile(path string) (*store.Store, bool, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, 0, err
	}
	defer f.Close()
	st, isSnap, n, err := OpenStore(f)
	if err != nil {
		return st, isSnap, n, fmt.Errorf("%s: %w", path, err)
	}
	return st, isSnap, n, nil
}

// GenerateStore streams a generator run straight into a frozen store,
// with no intermediate document, and returns the store alongside the
// generation statistics. sp2bgen builds its snapshots with it, and
// sp2bserve -gen its served store.
func GenerateStore(p gen.Params) (*store.Store, *gen.Stats, error) {
	st := store.New()
	pr, pw := io.Pipe()
	done := make(chan struct{})
	var stats *gen.Stats
	go func() {
		defer close(done)
		g, err := gen.New(p, pw)
		if err == nil {
			stats, err = g.Generate()
		}
		pw.CloseWithError(err)
	}()
	if _, err := st.Load(pr); err != nil {
		pr.CloseWithError(err) // unblock the generator if the load side failed
		<-done
		return nil, nil, err
	}
	<-done
	return st, stats, nil
}

// crcReader tees reads into a running CRC-32C. It implements
// io.ByteReader so varint reads stay on the buffered fast path.
type crcReader struct {
	r   *bufio.Reader
	sum uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.sum = crc32.Update(c.sum, castagnoli, []byte{b})
	}
	return b, err
}

// readSection reads one section header and its payload. The payload
// buffer grows incrementally, so a corrupt length field can waste at
// most one grow-step beyond the bytes actually present.
func readSection(cr *crcReader, want byte) ([]byte, error) {
	id, err := cr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading section id: %w", err)
	}
	if id != want {
		return nil, fmt.Errorf("snapshot: section 0x%02x out of order (want 0x%02x)", id, want)
	}
	n, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading section 0x%02x length: %w", want, err)
	}
	const step = 1 << 20
	buf := make([]byte, 0, min(n, step))
	for uint64(len(buf)) < n {
		grab := min(n-uint64(len(buf)), step)
		off := len(buf)
		buf = append(buf, make([]byte, grab)...)
		if _, err := io.ReadFull(cr, buf[off:]); err != nil {
			return nil, fmt.Errorf("snapshot: section 0x%02x truncated: %w", want, err)
		}
	}
	return buf, nil
}

// byteCursor walks a section payload with bounds-checked primitive
// reads.
type byteCursor struct {
	b   []byte
	off int
}

func (c *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("snapshot: truncated or malformed varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *byteCursor) take(n uint64) ([]byte, error) {
	if n > uint64(len(c.b)-c.off) {
		return nil, fmt.Errorf("snapshot: %d bytes requested with %d left", n, len(c.b)-c.off)
	}
	out := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return out, nil
}

func (c *byteCursor) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, fmt.Errorf("snapshot: unexpected end of section")
	}
	b := c.b[c.off]
	c.off++
	return b, nil
}

func (c *byteCursor) done() error {
	if c.off != len(c.b) {
		return fmt.Errorf("snapshot: %d trailing bytes in section", len(c.b)-c.off)
	}
	return nil
}

// decodeDict rebuilds the term table from the dictionary section.
func decodeDict(payload []byte, termCount uint64) ([]rdf.Term, error) {
	c := &byteCursor{b: payload}
	dtCount, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if dtCount > uint64(len(payload)) {
		return nil, fmt.Errorf("snapshot: datatype table claims %d entries in a %d-byte section", dtCount, len(payload))
	}
	dts := make([]string, 0, dtCount)
	for i := uint64(0); i < dtCount; i++ {
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := c.take(n)
		if err != nil {
			return nil, err
		}
		dts = append(dts, string(b))
	}

	// Each record is at least 3 bytes (tag + two varints), which bounds
	// the slice allocation by the payload actually present.
	terms := make([]rdf.Term, 0, min(termCount, uint64(len(payload))/3+1))
	prev := ""
	for i := uint64(0); i < termCount; i++ {
		tag, err := c.byte()
		if err != nil {
			return nil, err
		}
		kind := rdf.TermKind(tag & 0x3)
		if kind == rdf.KindInvalid || tag&^byte(0xF) != 0 {
			return nil, fmt.Errorf("snapshot: invalid term tag 0x%02x for term %d", tag, i+1)
		}
		hasDT, hasLang := tag&0x4 != 0, tag&0x8 != 0
		if (hasDT || hasLang) && kind != rdf.KindLiteral {
			return nil, fmt.Errorf("snapshot: non-literal term %d carries literal flags", i+1)
		}
		if hasDT && hasLang {
			return nil, fmt.Errorf("snapshot: term %d has both datatype and language tag", i+1)
		}
		prefix, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if prefix > uint64(len(prev)) {
			return nil, fmt.Errorf("snapshot: term %d shares %d prefix bytes with a %d-byte predecessor", i+1, prefix, len(prev))
		}
		sufLen, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		suffix, err := c.take(sufLen)
		if err != nil {
			return nil, err
		}
		value := prev[:prefix] + string(suffix)
		t := rdf.Term{Kind: kind, Value: value}
		if hasDT {
			idx, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			if idx >= uint64(len(dts)) {
				return nil, fmt.Errorf("snapshot: term %d references datatype %d of %d", i+1, idx, len(dts))
			}
			t.Datatype = dts[idx]
		}
		if hasLang {
			n, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			b, err := c.take(n)
			if err != nil {
				return nil, err
			}
			if len(b) == 0 {
				return nil, fmt.Errorf("snapshot: term %d has an empty language tag", i+1)
			}
			t.Lang = string(b)
		}
		terms = append(terms, t)
		prev = value
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return terms, nil
}

// decodeIndex rebuilds one sorted index from its delta-encoded section.
// The delta scheme makes strict ordering a decode-time invariant: any
// payload that would produce an unsorted or duplicate row is rejected.
func decodeIndex(payload []byte, tripleCount, termCount uint64, ord store.Order) ([]store.EncTriple, error) {
	c := &byteCursor{b: payload}
	// Each row is at least 3 varint bytes; bound the allocation by the
	// payload actually present.
	rows := make([]store.EncTriple, 0, min(tripleCount, uint64(len(payload))/3+1))
	comp := func(v uint64, row uint64) (store.ID, error) {
		if v == 0 || v > termCount {
			return 0, fmt.Errorf("snapshot: %s row %d references ID %d (dictionary size %d)", ord, row, v, termCount)
		}
		return store.ID(v), nil
	}
	var prev [3]uint64
	for i := uint64(0); i < tripleCount; i++ {
		d0, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		c0, c1, c2 := prev[0]+d0, prev[1], prev[2]
		if d0 != 0 {
			if c1, err = c.uvarint(); err != nil {
				return nil, err
			}
			if c2, err = c.uvarint(); err != nil {
				return nil, err
			}
		} else {
			d1, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			if d1 != 0 {
				c1 = prev[1] + d1
				if c2, err = c.uvarint(); err != nil {
					return nil, err
				}
			} else {
				d2, err := c.uvarint()
				if err != nil {
					return nil, err
				}
				if d2 == 0 {
					return nil, fmt.Errorf("snapshot: %s row %d duplicates its predecessor", ord, i)
				}
				c2 = prev[2] + d2
			}
		}
		var t store.EncTriple
		for j, v := range [3]uint64{c0, c1, c2} {
			id, err := comp(v, i)
			if err != nil {
				return nil, err
			}
			t[j] = id
		}
		rows = append(rows, t)
		prev = [3]uint64{c0, c1, c2}
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return rows, nil
}
