package dbt

// codeCache maps a guest block pc to its installed unit. The engine
// starts no goroutines, and the
// methods that reach the cache from outside Run (Invalidate,
// Translations, BlockListing) must not run concurrently with it, so one
// goroutine at a time touches the cache and it needs no lock.
type codeCache map[uint32]*tblock
