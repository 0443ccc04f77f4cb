package store

// DirOf exposes an index's leading-ID directory to the external tests.
func DirOf(s *Store, o Order) []uint32 { return s.dirs[o] }
