package core

import (
	"fmt"
	"sort"
	"strings"

	"paramdbt/internal/guest"
	"paramdbt/internal/rule"
)

// Config selects which parameterization dimensions run; the ablation
// experiments (paper Figs. 14/15) toggle them individually.
type Config struct {
	Opcode   bool // opcode parameterization
	AddrMode bool // addressing-mode (and dependence-shape) parameterization
}

// Counts reports the rule accounting of the paper's Table III.
type Counts struct {
	Learned       int `json:"learned"`         // unique learned rules (input)
	OpcodeParam   int `json:"opcode_param"`    // parameterized rules after opcode abstraction
	AddrModeParam int `json:"addr_mode_param"` // parameterized rules after addressing-mode abstraction
	// Instantiated counts the applicable rules the parameterized set
	// represents: every verified (opcode x shape x mode) instance of
	// every parameterized rule, plus the rules parameterization cannot
	// touch (sequences, branch tails). The paper's 86,423.
	Instantiated int `json:"instantiated"`
	Derived      int `json:"derived"`  // rules newly added to the store by parameterization
	Rejected     int `json:"rejected"` // derived candidates the verifier refused
}

// shapeSig canonicalizes the dependence shape and operand modes of a
// single-instruction guest pattern: the same subgroup + shapeSig means
// "same parameterized rule" at the opcode level.
func shapeSig(p rule.GPat) string {
	var b strings.Builder
	// Param equality classes by first occurrence.
	next := 0
	class := map[int]int{}
	slot := func(a rule.Arg) {
		switch a.Kind {
		case guest.KindReg:
			if _, ok := class[a.Param]; !ok {
				class[a.Param] = next
				next++
			}
			fmt.Fprintf(&b, "r%d", class[a.Param])
		case guest.KindImm:
			if a.Param >= 0 {
				b.WriteString("i")
			} else {
				fmt.Fprintf(&b, "k%d", a.Fixed)
			}
		case guest.KindMem:
			if _, ok := class[a.BaseParam]; !ok {
				class[a.BaseParam] = next
				next++
			}
			fmt.Fprintf(&b, "m%d", class[a.BaseParam])
			if a.HasIdx {
				if _, ok := class[a.IdxParam]; !ok {
					class[a.IdxParam] = next
					next++
				}
				fmt.Fprintf(&b, "+r%d", class[a.IdxParam])
			} else if a.DispParam >= 0 {
				b.WriteString("+i")
			} else {
				fmt.Fprintf(&b, "+k%d", a.Disp)
			}
		}
		b.WriteByte(',')
	}
	for _, a := range p.Args {
		slot(a)
	}
	return b.String()
}

// variant is one (opcode, shape, mode) combination the parameterizer
// can target.
type variant struct {
	op   guest.Op
	s    bool
	gpat rule.GPat
	r    roles
	prms []rule.ParamKind
}

// buildVariant constructs the guest pattern for an opcode and an
// abstract arg-shape description. argSpec entries: 'A'..'E' name reg
// params by equality class; 'i' is a parametric immediate; "mA+i",
// "mA+B" are memory operands.
func buildVariant(op guest.Op, s bool, argSpec []string) (variant, bool) {
	v := variant{op: op, s: s}
	classParam := map[byte]int{}
	regParam := func(c byte) int {
		if p, ok := classParam[c]; ok {
			return p
		}
		p := len(v.prms)
		v.prms = append(v.prms, rule.PReg)
		classParam[c] = p
		return p
	}
	immParam := func() int {
		p := len(v.prms)
		v.prms = append(v.prms, rule.PImm)
		return p
	}
	var args []rule.Arg
	for _, spec := range argSpec {
		switch {
		case spec == "i":
			args = append(args, rule.ImmArg(immParam()))
		case len(spec) == 1:
			args = append(args, rule.RegArg(regParam(spec[0])))
		case strings.HasPrefix(spec, "m"):
			base := regParam(spec[1])
			rest := spec[3:] // after "mX+"
			if rest == "i" {
				args = append(args, rule.MemDispArg(base, immParam()))
			} else {
				args = append(args, rule.MemIdxArg(base, regParam(rest[0])))
			}
		default:
			return variant{}, false
		}
	}
	v.gpat = rule.GPat{Op: op, S: s, Args: args}
	r, ok := rolesOf(v.gpat)
	if !ok {
		return variant{}, false
	}
	v.r = r
	return v, true
}

// variantSpecs lists the arg-shape specs explored per subgroup family.
func variantSpecs(id string) [][]string {
	base := strings.TrimSuffix(id, "!")
	switch base {
	case "al3", "mul":
		return [][]string{
			{"A", "B", "C"}, // all distinct
			{"A", "A", "B"}, // dst == src1 (the common RMW)
			{"A", "B", "A"}, // dst == src2
			{"A", "B", "B"}, // src1 == src2
			{"A", "A", "A"}, // all same
			{"A", "B", "i"}, // immediate src2
			{"A", "A", "i"},
		}
	case "dp2":
		return [][]string{
			{"A", "B"},
			{"A", "i"},
		}
	case "cmp":
		return [][]string{
			{"A", "B"},
			{"A", "A"},
			{"A", "i"},
		}
	case "load", "store":
		return [][]string{
			{"A", "mB+i"},
			{"A", "mA+i"},
			{"A", "mB+C"},
			{"A", "mA+B"},
			{"A", "mB+A"},
		}
	}
	return nil
}

// encodable checks that a sample instantiation of the guest pattern can
// exist in the binary encoding (e.g. mul has no immediate form).
func encodable(p rule.GPat) bool {
	in := guest.Inst{Op: p.Op, Cond: guest.AL, S: p.S}
	reg := guest.Reg(0)
	for i, a := range p.Args {
		var o guest.Operand
		switch a.Kind {
		case guest.KindReg:
			o = guest.RegOp(guest.Reg(a.Param))
		case guest.KindImm:
			if a.Param >= 0 {
				o = guest.ImmOp(5)
			} else {
				o = guest.ImmOp(a.Fixed)
			}
		case guest.KindMem:
			if a.HasIdx {
				o = guest.MemIdxOp(guest.Reg(a.BaseParam), guest.Reg(a.IdxParam))
			} else {
				d := a.Disp
				if a.DispParam >= 0 {
					d = 4
				}
				o = guest.MemOp(guest.Reg(a.BaseParam), d)
			}
		}
		in.Ops[i] = o
		in.N = i + 1
		_ = reg
	}
	w, err := guest.Encode(in)
	if err != nil {
		return false
	}
	dec, err := guest.Decode(w)
	if err != nil {
		return false
	}
	return dec.Op == in.Op && dec.N == in.N
}

// Parameterize expands the learned rules in `in` along the configured
// dimensions, returning a new store holding the originals plus every
// verified derived rule, and the Table III accounting.
func Parameterize(in *rule.Store, cfg Config) (*rule.Store, Counts) {
	out := rule.NewStore()
	var counts Counts
	counts.Learned = in.Len()

	// Track which (subgroup, shapeSig) combinations the training set
	// produced, the grouping that defines the parameterized rules.
	opGroups := map[string]bool{}   // subgroup + shape sig
	modeGroups := map[string]bool{} // subgroup only
	unparam := 0

	type seed struct {
		id string
	}
	seeds := map[seed]bool{}

	for _, t := range in.All() {
		cp := *t
		out.Add(&cp)
		if t.GuestLen() != 1 {
			unparam++
			continue
		}
		p := t.Guest[0]
		id := SubgroupOf(p.Op, p.S)
		if id == "" || guestKind[p.Op] == KNone {
			unparam++
			continue
		}
		opGroups[id+"/"+shapeSig(p)] = true
		modeGroups[id] = true
		seeds[seed{id}] = true
	}
	counts.OpcodeParam = unparam + len(opGroups)
	counts.AddrModeParam = unparam + len(modeGroups)

	if !cfg.Opcode && !cfg.AddrMode {
		counts.Instantiated = out.Len()
		return out, counts
	}

	// Deterministic seed order.
	var ids []string
	for s := range seeds {
		ids = append(ids, s.id)
	}
	sort.Strings(ids)

	instances := 0
	attempted := map[string]bool{}
	guestSeen := map[string]bool{}
	for _, t := range out.All() {
		if t.GuestLen() == 1 {
			guestSeen[guestSideString(t)] = true
		}
	}
	for _, id := range ids {
		s := strings.HasSuffix(id, "!")
		ops := subgroupOps(id)
		specs := variantSpecs(id)
		if specs == nil {
			continue
		}
		for _, op := range ops {
			for si, spec := range specs {
				v, ok := buildVariant(op, s, spec)
				if !ok || !encodable(v.gpat) {
					continue
				}
				sig := shapeSig(v.gpat)
				// Without the addressing-mode factor, only the dependence
				// shapes and operand modes the training set actually
				// produced for this subgroup may be derived (the paper's
				// opcode dimension changes the opcode, nothing else).
				if !cfg.AddrMode && !opGroups[id+"/"+sig] {
					continue
				}
				_ = si
				k := guestKind[op]
				hp := hostRealization(k, v.r, 0, s)
				if hp == nil {
					continue
				}
				nScratch := 0
				if hostRealizationUsesScratch(hp, 0) {
					nScratch = 1
				}
				t := &rule.Template{
					Guest:    []rule.GPat{v.gpat},
					Host:     hp,
					Params:   v.prms,
					NScratch: nScratch,
					GroupKey: id + "/" + shapeSig(v.gpat),
				}
				fp := t.Fingerprint()
				if attempted[fp] {
					continue
				}
				attempted[fp] = true
				gs := guestSideString(t)
				if guestSeen[gs] {
					// A learned rule already realizes this instance; it
					// still counts as one applicable instantiation.
					instances++
					continue
				}
				if _, ok := rule.Verify(t); !ok {
					counts.Rejected++
					continue
				}
				if opGroups[id+"/"+sig] {
					t.Origin = rule.OriginOpcodeParam
				} else {
					t.Origin = rule.OriginModeParam
				}
				if out.Add(t) {
					counts.Derived++
					instances++
					guestSeen[gs] = true
				}
			}
		}
	}

	counts.Instantiated = unparam + instances
	return out, counts
}

// guestSideString renders only the guest half of a rule; a derived rule
// whose guest side duplicates an existing one is skipped so the learned
// host idiom wins over a synthesized derivation.
func guestSideString(t *rule.Template) string {
	full := t.String()
	if i := strings.Index(full, " => "); i >= 0 {
		return full[:i]
	}
	return full
}
