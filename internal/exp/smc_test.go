package exp

import (
	"reflect"
	"testing"
)

// TestSMCExperimentReproducible: every engine in the SMC section
// translates on the dispatch loop, so two runs of the section must
// report identical rows — invalidation counts included — and every row
// must match the interpreter.
func TestSMCExperimentReproducible(t *testing.T) {
	c := getCorpus(t)
	a, err := SMCExperiment(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SMCExperiment(c)
	if err != nil {
		t.Fatal(err)
	}
	if !a.AllMatch {
		t.Fatalf("a row differs from the interpreter: %+v", a.Rows)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("two runs differ:\n%+v\n%+v", a.Rows, b.Rows)
	}
}
