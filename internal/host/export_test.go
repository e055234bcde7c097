package host

// RunTwin exposes the twin harness to the external differential test,
// which needs packages (the engine, the corpus) that import this one.
var RunTwin = runTwin

// FrameOps counts the micro-ops of b that got a frame kind, for the
// external test that checks translated code reaches the frame path.
func FrameOps(b *Block) int {
	n := 0
	for _, u := range b.prog {
		if isFrameKind(u.kind()) {
			n++
		}
	}
	return n
}

// isFrameKind reports whether k is one of the frame kinds.
func isFrameKind(k uint8) bool {
	for _, fk := range frameKinds {
		if fk != 0 && fk == k {
			return true
		}
	}
	return false
}
