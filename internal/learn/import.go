package learn

import (
	"io"

	"paramdbt/internal/rule"
)

// ImportStats is the funnel for one rule-pack import: how many
// templates the pack carried, how many the admission gate refused.
type ImportStats struct {
	Loaded       int // templates admitted into the returned store
	GateRejected int // structurally valid templates the static audit refused
}

// ImportPack loads a saved rule table (the JSON Lines stream rule.Save
// writes; `rulegen -o`, `paradbt -rules`) into a fresh store, applying
// the AdmissionGate to every template exactly as the learning pipeline
// does: a saved table is an alternate rule SOURCE, not an alternate
// trust path, so nothing enters the store the local auditor would have
// refused at learning time. Gate-refused templates are skipped and
// counted; structural corruption fails the import.
func ImportPack(r io.Reader) (*rule.Store, ImportStats, error) {
	store, rejected, err := rule.LoadGated(r, false, AdmissionGate)
	if err != nil {
		return nil, ImportStats{GateRejected: rejected}, err
	}
	return store, ImportStats{Loaded: store.Len(), GateRejected: rejected}, nil
}
