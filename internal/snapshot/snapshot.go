package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"sp2bench/internal/rdf"
	"sp2bench/internal/store"
)

// Version is the current format version. Load rejects every other
// version: the format is a cache, not an archival interchange, so
// there is no cross-version migration.
const Version = 2

// Ext is the conventional file extension for snapshot files.
const Ext = ".sp2b"

// magic identifies a snapshot stream. It is not parseable as the start
// of any N-Triples document, which is what makes sniffing reliable.
var magic = [8]byte{'S', 'P', '2', 'B', 'S', 'N', 'A', 'P'}

// Section identifiers, in their required stream order.
const (
	secDict = 0x01
	secSPO  = 0x02
	secPOS  = 0x03
	secOSP  = 0x04
	secEnd  = 0xFF
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IsSnapshot reports whether b begins with the snapshot magic. Callers
// sniffing a stream peek at least len(Magic()) bytes.
func IsSnapshot(b []byte) bool {
	return len(b) >= len(magic) && bytes.Equal(b[:len(magic)], magic[:])
}

// Magic returns the 8 magic bytes opening every snapshot stream.
func Magic() []byte { return append([]byte(nil), magic[:]...) }

// Write serializes a frozen store to w in snapshot format. The four
// section payloads are encoded concurrently, then streamed out in
// order under a running CRC.
func Write(w io.Writer, s *store.Store) error {
	if !s.Frozen() {
		return fmt.Errorf("snapshot: store must be frozen")
	}
	terms := s.Dict().Terms()

	var (
		payloads [4][]byte
		encErr   error
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		payloads[0], encErr = encodeDict(terms)
	}()
	for i, ord := range []store.Order{store.OrderSPO, store.OrderPOS, store.OrderOSP} {
		i, ord := i, ord
		wg.Add(1)
		go func() {
			defer wg.Done()
			payloads[1+i] = encodeIndex(s.Index(ord))
		}()
	}
	wg.Wait()
	if encErr != nil {
		return encErr
	}

	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &crcWriter{w: bw}
	header := magic[:]
	header = binary.LittleEndian.AppendUint32(header[:len(header):len(header)], Version)
	header = binary.AppendUvarint(header, uint64(len(terms)))
	header = binary.AppendUvarint(header, uint64(s.Len()))
	if _, err := cw.Write(header); err != nil {
		return err
	}
	for i, id := range []byte{secDict, secSPO, secPOS, secOSP} {
		head := binary.AppendUvarint([]byte{id}, uint64(len(payloads[i])))
		if _, err := cw.Write(head); err != nil {
			return err
		}
		if _, err := cw.Write(payloads[i]); err != nil {
			return err
		}
	}
	if _, err := cw.Write([]byte{secEnd}); err != nil {
		return err
	}
	// The CRC itself is written outside the running checksum.
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], cw.sum)
	if _, err := bw.Write(crc[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes a snapshot to path atomically (see WriteAtomic), so
// concurrent readers — e.g. parallel benchmark runs sharing a cache
// directory — never observe a half-written file.
func WriteFile(path string, s *store.Store) error {
	return WriteAtomic(path, func(w io.Writer) error { return Write(w, s) })
}

// WriteAtomic runs write against a temporary sibling of path and
// renames the result into place. It is the one shared
// atomic-file-write sequence for every artifact that can live in a
// shared cache directory (snapshots, the harness's documents and
// manifests): readers see either the old file or the complete new one,
// never a torn write.
func WriteAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".sp2b-tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// CreateTemp's 0600 would make a shared cache directory unreadable
	// for sibling users; match os.Create's default.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// crcWriter tees writes into a running CRC-32C.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	return n, err
}

// encodeDict serializes the dictionary: a datatype string table, then
// one record per term with the value front-coded against its
// predecessor.
func encodeDict(terms []rdf.Term) ([]byte, error) {
	dtIndex := map[string]int{}
	var dts []string
	for _, t := range terms {
		if t.Datatype != "" {
			if _, ok := dtIndex[t.Datatype]; !ok {
				dtIndex[t.Datatype] = len(dts)
				dts = append(dts, t.Datatype)
			}
		}
	}
	b := binary.AppendUvarint(nil, uint64(len(dts)))
	for _, dt := range dts {
		b = appendString(b, dt)
	}
	prev := ""
	for _, t := range terms {
		if t.Kind != rdf.KindIRI && t.Kind != rdf.KindBlank && t.Kind != rdf.KindLiteral {
			return nil, fmt.Errorf("snapshot: cannot serialize term of kind %v", t.Kind)
		}
		tag := byte(t.Kind)
		if t.Datatype != "" {
			tag |= 0x4
		}
		if t.Lang != "" {
			tag |= 0x8
		}
		b = append(b, tag)
		p := commonPrefix(prev, t.Value)
		b = binary.AppendUvarint(b, uint64(p))
		b = binary.AppendUvarint(b, uint64(len(t.Value)-p))
		b = append(b, t.Value[p:]...)
		if t.Datatype != "" {
			b = binary.AppendUvarint(b, uint64(dtIndex[t.Datatype]))
		}
		if t.Lang != "" {
			b = appendString(b, t.Lang)
		}
		prev = t.Value
	}
	return b, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func commonPrefix(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// encodeIndex delta-encodes one sorted index. Rows are strictly
// increasing in component order, so the leading deltas are
// non-negative and the final component's delta (when the prefix is
// unchanged) strictly positive — properties the decoder enforces.
func encodeIndex(rows []store.EncTriple) []byte {
	// ~4 bytes/row is typical for benchmark data; pre-size to skip most
	// growth copies.
	b := make([]byte, 0, 5*len(rows))
	var prev store.EncTriple
	for _, t := range rows {
		d0 := t[0] - prev[0]
		b = binary.AppendUvarint(b, uint64(d0))
		switch {
		case d0 != 0:
			b = binary.AppendUvarint(b, uint64(t[1]))
			b = binary.AppendUvarint(b, uint64(t[2]))
		default:
			d1 := t[1] - prev[1]
			b = binary.AppendUvarint(b, uint64(d1))
			if d1 != 0 {
				b = binary.AppendUvarint(b, uint64(t[2]))
			} else {
				b = binary.AppendUvarint(b, uint64(t[2]-prev[2]))
			}
		}
		prev = t
	}
	return b
}
