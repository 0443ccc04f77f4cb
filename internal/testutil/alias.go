package testutil

import "unsafe"

// Within reports whether s's bytes lie inside in's: whether s is a
// substring of in that shares its memory, as the N-Triples parser's
// terms share the line they were parsed from.
func Within(s, in string) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(in)))
	return len(s) > 0 && p >= lo && p < lo+uintptr(len(in))
}
