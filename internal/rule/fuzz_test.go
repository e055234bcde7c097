package rule

import (
	"bytes"
	"testing"
)

// fuzzSeedTable renders a small valid rule table (the happy-path seed;
// the fuzzer mutates it into near-valid corruptions, which are the
// interesting inputs for a deserializer).
func fuzzSeedTable() []byte {
	s := NewStore()
	s.Add(addRMWTemplate())
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzRuleDeserialize asserts the deserializer's contract on arbitrary
// input: corrupted tables must produce an error, never a panic, and any
// table Load accepts must survive a Save/Load round trip. Historical
// bugs this guards against: Load fed templates spanning more than the
// retrieval window into Store.Add (which panics on that invariant), and
// negative memory-shape param indices passed validation only to index
// out of range at match time.
func FuzzRuleDeserialize(f *testing.F) {
	f.Add(fuzzSeedTable())
	// Truncated JSON.
	f.Add(fuzzSeedTable()[:20])
	// Guest window longer than the retrieval bound (17 one-inst pats).
	long := []byte(`{"guest":[`)
	for i := 0; i < 17; i++ {
		if i > 0 {
			long = append(long, ',')
		}
		long = append(long, []byte(`{"Op":2,"Args":[]}`)...)
	}
	long = append(long, []byte(`],"host":[{"Op":1,"Dst":{"Kind":1,"Param":-1,"DispParam":-1,"Scratch":-1},"Src":{"Kind":0,"Param":-1,"DispParam":-1,"Scratch":-1}}],"params":[]}`)...)
	f.Add(long)
	// Negative mem-shape param indices.
	f.Add([]byte(`{"guest":[{"Op":20,"Args":[{"Kind":1,"Param":0,"DispParam":-1,"Scratch":-1},{"Kind":3,"Param":-1,"BaseParam":-2,"DispParam":-1,"Scratch":-1}]}],"host":[{"Op":1,"Dst":{"Kind":1,"Param":0,"DispParam":-1,"Scratch":-1},"Src":{"Kind":0,"Param":-1,"DispParam":-1,"Scratch":-1}}],"params":[0,0]}`))
	// Out-of-range opcode and condition bytes.
	f.Add([]byte(`{"guest":[{"Op":250,"Args":[]}],"host":[{"Op":250,"Dst":{"Kind":0,"Param":-1,"DispParam":-1,"Scratch":-1},"Src":{"Kind":0,"Param":-1,"DispParam":-1,"Scratch":-1}}],"params":[],"gcond":99,"hcond":99}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, _, err := LoadGated(bytes.NewReader(data), false, nil)
		if err != nil {
			return // rejected cleanly — that is the contract
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("accepted table failed to save: %v", err)
		}
		if _, _, err := LoadGated(bytes.NewReader(buf.Bytes()), false, nil); err != nil {
			t.Fatalf("saved table failed to re-load: %v", err)
		}
	})
}
