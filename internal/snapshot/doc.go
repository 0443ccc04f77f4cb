// Package snapshot implements the .sp2b binary on-disk format for a
// frozen store.Store: the persisted, dictionary-encoded, already-sorted
// form of a benchmark document. Writing a snapshot once and reloading
// it skips N-Triples parsing, term interning, index sorting and
// deduplication entirely, so 5M+-triple benchmark runs start in seconds
// — the same reason HDT-style RDF corpora ship as binary dictionaries
// plus ID-triples.
//
// # Format (version 2)
//
// All multi-byte integers are unsigned LEB128 varints except where
// noted. The layout is:
//
//	magic    [8]byte  "SP2BSNAP"
//	version  uint32 (little-endian)
//	terms    uvarint  dictionary size
//	triples  uvarint  distinct triple count
//	4 sections, each:  id byte, uvarint payload length, payload
//	end      byte 0xFF
//	crc      uint32 (little-endian) CRC-32C of every preceding byte
//
// The four sections appear in fixed order:
//
//	0x01 dictionary — a table of distinct datatype IRIs (uvarint count,
//	     then length-prefixed strings), followed by one record per term
//	     in ID order: a tag byte (low 2 bits: 1 IRI, 2 blank node,
//	     3 literal; 0x4 datatype present, 0x8 language tag present),
//	     then the term's lexical value front-coded against the previous
//	     record (uvarint shared-prefix length, uvarint suffix length,
//	     suffix bytes), then a datatype-table index or a
//	     length-prefixed language tag per the flags.
//	0x02/0x03/0x04 SPO/POS/OSP index — the index rows in component
//	     order, varint-delta encoded: each row stores the delta of its
//	     leading component; components after an unchanged prefix are
//	     delta-encoded too, the rest absolute. Because rows are strictly
//	     increasing, the encoding doubles as a sortedness proof: the
//	     reader rejects any payload that would decode out of order.
//
// The file stores no statistics. Every statistic the planner reads is
// derived from the sorted indexes on load, by the same step that seals
// a store after Freeze or an MVCC merge (see store.Rehydrate), so a
// snapshot cannot disagree with its own indexes. Version 1 files, which
// carried a statistics section, are refused as an unsupported version;
// the harness then re-parses the document and rewrites its cache.
//
// # Reading
//
// Load streams sections through a bounded-memory reader: every length
// field is validated against the bytes actually present before
// allocation, so truncated or hostile inputs fail with an error instead
// of panicking or exhausting memory (see FuzzRead). Section payloads
// are decoded concurrently as they come off the stream, and the store
// is rebuilt through store.Rehydrate, which re-verifies index
// sortedness and ID bounds in cheap linear passes — never by
// re-sorting — and derives the directories and statistics. A corrupted
// file is detected by the CRC-32C footer even when the damage happens
// to decode cleanly.
//
// # Workflow
//
// sp2bgen -o doc.sp2b writes a snapshot directly; sp2bquery, sp2bserve
// and the sp2bbench harness auto-detect snapshot vs. N-Triples input by
// the magic bytes, so every existing flag works unchanged with either
// format. The harness additionally caches a snapshot next to each
// generated .nt document and reloads it on subsequent runs.
package snapshot
