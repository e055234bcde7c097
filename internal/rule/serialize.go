package rule

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"paramdbt/internal/guest"
	"paramdbt/internal/host"
)

// Rule tables are persisted as JSON Lines: one template per line, a
// format that diffs well and streams. The rule-generation phase is
// offline in the paper's system, so the DBT loads a previously saved
// table at startup.

// serialized mirrors Template for encoding (kept separate so the wire
// format is explicit and stable even if Template grows fields).
type serialized struct {
	Guest       []GPat  `json:"guest"`
	Host        []HPat  `json:"host"`
	Params      []uint8 `json:"params"`
	NScratch    int     `json:"nscratch,omitempty"`
	SetsFlags   bool    `json:"setsFlags,omitempty"`
	NZMatch     bool    `json:"nzMatch,omitempty"`
	CMatch      bool    `json:"cMatch,omitempty"`
	CInverted   bool    `json:"cInverted,omitempty"`
	VMatch      bool    `json:"vMatch,omitempty"`
	FlagSrc     uint8   `json:"flagSrc,omitempty"`
	Origin      uint8   `json:"origin"`
	GroupKey    string  `json:"groupKey,omitempty"`
	NonZeroImms []int   `json:"nonZeroImms,omitempty"`
	BranchTail  bool    `json:"branchTail,omitempty"`
	GCond       uint8   `json:"gcond,omitempty"`
	HCond       uint8   `json:"hcond,omitempty"`
}

func toSerialized(t *Template) serialized {
	s := serialized{
		Guest:       t.Guest,
		Host:        t.Host,
		NScratch:    t.NScratch,
		SetsFlags:   t.SetsFlags,
		NZMatch:     t.Flags.NZMatch,
		CMatch:      t.Flags.CMatch,
		CInverted:   t.Flags.CInverted,
		VMatch:      t.Flags.VMatch,
		FlagSrc:     uint8(t.FlagSrc),
		Origin:      uint8(t.Origin),
		GroupKey:    t.GroupKey,
		NonZeroImms: t.NonZeroImms,
		BranchTail:  t.BranchTail,
		GCond:       uint8(t.GCond),
		HCond:       uint8(t.HCond),
	}
	for _, p := range t.Params {
		s.Params = append(s.Params, uint8(p))
	}
	return s
}

func fromSerialized(s serialized) *Template {
	t := &Template{
		Guest:       s.Guest,
		Host:        s.Host,
		NScratch:    s.NScratch,
		SetsFlags:   s.SetsFlags,
		FlagSrc:     FlagFam(s.FlagSrc),
		Origin:      Origin(s.Origin),
		GroupKey:    s.GroupKey,
		NonZeroImms: s.NonZeroImms,
		BranchTail:  s.BranchTail,
	}
	t.Flags.NZMatch = s.NZMatch
	t.Flags.CMatch = s.CMatch
	t.Flags.CInverted = s.CInverted
	t.Flags.VMatch = s.VMatch
	t.GCond = guestCond(s.GCond)
	t.HCond = hostCond(s.HCond)
	for _, p := range s.Params {
		t.Params = append(t.Params, ParamKind(p))
	}
	return t
}

// Save writes the store as JSON Lines in deterministic order.
func (s *Store) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, t := range s.All() {
		if err := enc.Encode(toSerialized(t)); err != nil {
			return fmt.Errorf("rule: encoding %q: %w", t, err)
		}
	}
	return bw.Flush()
}

// LoadGated reads a JSON Lines rule table into a fresh store. When
// reverify is set, every template is re-checked with the symbolic
// executor and unsound entries are rejected — the defensive path for
// tables from untrusted sources. The admission predicate, when non-nil,
// is applied to every structurally valid (and, under reverify,
// verified) template. Templates the predicate refuses are skipped
// rather than failing the load — a table carrying a handful of rules
// the local auditor refuses is still usable — and the skip count is
// returned. Malformed entries remain fatal: structural corruption means
// the table itself cannot be trusted. learn.ImportPack wires the static
// admission audit through here for rule packs and rule table files.
func LoadGated(r io.Reader, reverify bool, admit func(*Template) (ok bool, reason string)) (*Store, int, error) {
	out := NewStore()
	rejected := 0
	dec := json.NewDecoder(r)
	line := 0
	for {
		var s serialized
		err := dec.Decode(&s)
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, rejected, fmt.Errorf("rule: entry %d: %w", line, err)
		}
		t := fromSerialized(s)
		if err := validate(t); err != nil {
			return nil, rejected, fmt.Errorf("rule: entry %d (%q): %w", line, t, err)
		}
		if reverify {
			if res, ok := Verify(t); !ok {
				return nil, rejected, fmt.Errorf("rule: entry %d (%q) fails verification: %s", line, t, res.Reason)
			}
		}
		if admit != nil {
			if ok, _ := admit(t); !ok {
				rejected++
				continue
			}
		}
		out.Add(t)
	}
	return out, rejected, nil
}

// QuarantineEntry is one persisted quarantine decision: a rule demoted
// at run time by the guard layer (shadow-verification divergence or a
// translator panic attributed to the rule). The fingerprint is the
// store's canonical identity, so a reloaded table re-quarantines the
// same rule; the rendered rule and reason are for the operator.
type QuarantineEntry struct {
	Fingerprint string `json:"fingerprint"`
	Rule        string `json:"rule,omitempty"`
	Reason      string `json:"reason,omitempty"`
}

// SaveQuarantine writes quarantine entries as JSON Lines (the same
// diff-friendly layout as the rule table itself).
func SaveQuarantine(w io.Writer, entries []QuarantineEntry) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("rule: encoding quarantine entry %q: %w", e.Fingerprint, err)
		}
	}
	return bw.Flush()
}

// LoadQuarantine reads a JSON Lines quarantine file. Entries with an
// empty fingerprint are rejected — they could never match a rule and
// indicate a corrupted file.
func LoadQuarantine(r io.Reader) ([]QuarantineEntry, error) {
	dec := json.NewDecoder(r)
	var out []QuarantineEntry
	line := 0
	for {
		var e QuarantineEntry
		err := dec.Decode(&e)
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("rule: quarantine entry %d: %w", line, err)
		}
		if e.Fingerprint == "" {
			return nil, fmt.Errorf("rule: quarantine entry %d: empty fingerprint", line)
		}
		out = append(out, e)
	}
	return out, nil
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory, syncing before the rename so a crash at any point leaves
// either the old content or the new — never a torn file. Same-directory
// placement keeps the rename on one filesystem, where POSIX makes it
// atomic. cmd/paradbt writes its quarantine file with it: a torn file
// would silently drop demotions on the next run.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// guestCond clamps a deserialized guest condition code.
func guestCond(v uint8) guest.Cond {
	if v >= uint8(guest.NumConds) {
		return guest.AL
	}
	return guest.Cond(v)
}

// hostCond clamps a deserialized host condition code.
func hostCond(v uint8) host.Cond {
	if v >= uint8(host.NumConds) {
		return host.CondNone
	}
	return host.Cond(v)
}

// validate performs structural checks on a deserialized template so a
// corrupted table cannot index out of range at match time.
func validate(t *Template) error {
	if len(t.Guest) == 0 || len(t.Host) == 0 {
		return fmt.Errorf("empty pattern")
	}
	// Store.Add enforces the retrieval-window bound with a panic (an
	// internal invariant for learned rules); a deserialized table is
	// external input, so the bound is an error here.
	if t.GuestLen() > maxKeyWindow {
		return fmt.Errorf("guest pattern spans %d instructions, retrieval window is %d", t.GuestLen(), maxKeyWindow)
	}
	checkArg := func(a Arg) error {
		check := func(p int) error {
			// Negative indices would pass a >= len check but panic at
			// match/instantiation time — mem-shape params (BaseParam,
			// IdxParam) are unconditional slice indexes.
			if p < 0 || p >= len(t.Params) {
				return fmt.Errorf("param %d out of range (%d params)", p, len(t.Params))
			}
			return nil
		}
		if a.Param >= 0 {
			if err := check(a.Param); err != nil {
				return err
			}
		}
		if a.Kind == guest.KindMem {
			if err := check(a.BaseParam); err != nil {
				return err
			}
			if a.HasIdx {
				if err := check(a.IdxParam); err != nil {
					return err
				}
			}
			if a.DispParam >= 0 {
				if err := check(a.DispParam); err != nil {
					return err
				}
			}
		}
		if a.Scratch >= t.NScratch {
			return fmt.Errorf("scratch %d out of range (%d)", a.Scratch, t.NScratch)
		}
		return nil
	}
	for _, g := range t.Guest {
		for _, a := range g.Args {
			if err := checkArg(a); err != nil {
				return err
			}
		}
	}
	for _, h := range t.Host {
		if err := checkArg(h.Dst); err != nil {
			return err
		}
		if err := checkArg(h.Src); err != nil {
			return err
		}
	}
	for _, p := range t.NonZeroImms {
		if p < 0 || p >= len(t.Params) || t.Params[p] != PImm {
			return fmt.Errorf("nonzero constraint on bad param %d", p)
		}
	}
	return nil
}
