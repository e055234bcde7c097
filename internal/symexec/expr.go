// Package symexec implements the semantic-equivalence verifier used by
// the rule learning and parameterization pipelines. Guest and host
// instruction sequences are evaluated symbolically into expression DAGs
// over shared parameter symbols; two sequences are equivalent when every
// guest-visible effect (written registers, memory stores, and — when
// requested — NZCV flags) normalizes to the same expression, with a
// randomized concrete cross-check as a fallback for algebraic identities
// the normalizer does not know.
//
// The verifier is deliberately strict, mirroring the paper (§II-B): it
// requires a one-to-one operand mapping, refuses control flow inside
// rules, and treats any unmodeled effect (e.g. multiply flags) as an
// unknown that never compares equal. This strictness is what produces
// the paper's candidate-to-rule drop rate.
package symexec

import (
	"fmt"
	"math/bits"
	"sort"
)

// XOp is a symbolic expression operator.
type XOp uint8

// Expression operators.
const (
	XConst XOp = iota
	XSym
	XAdd
	XSub
	XMul
	XAnd
	XOr
	XXor
	XNot
	XNeg
	XShl
	XShr
	XSar
	XRor
	XClz
	XEq       // 0/1
	XNe       // 0/1
	XLtU      // 0/1 (unsigned <)
	XLeU      // 0/1
	XCarryAdd // 0/1: carry out of X+Y+Z (Z is 0/1 carry-in)
	XCarrySub // 0/1: ARM NOT-borrow of X-Y-(1-Z)
	XOvfAdd   // 0/1: signed overflow of X+Y+Z
	XOvfSub   // 0/1: signed overflow of X-Y-(1-Z)
	XLoad8
	XLoad32
	XUnknown // never equal to anything, including itself
)

// Expr is a node of a symbolic expression DAG. Exprs are immutable after
// construction.
type Expr struct {
	Op      XOp
	C       uint32 // XConst value
	Name    string // XSym name
	X, Y, Z *Expr
	Ver     int // XLoad*: number of stores visible to this load

	hash uint64 // structural hash, memoized
}

// Const returns a constant expression.
func Const(v uint32) *Expr {
	if v < uint32(len(smallConsts)) {
		return smallConsts[v]
	}
	return &Expr{Op: XConst, C: v}
}

// smallConsts interns the constants evaluation builds over and over
// (flag words, shift counts, masks). Exprs are immutable, and each hash
// is computed before the table is published, so Hash only ever reads
// them and any number of goroutines may share the nodes.
var smallConsts = func() (t [256]*Expr) {
	for v := range t {
		t[v] = interned(&Expr{Op: XConst, C: uint32(v)})
	}
	return t
}()

// interned prepares a node for read-only sharing: its hash is memoized
// now, so no later Hash call writes to it.
func interned(e *Expr) *Expr {
	e.Hash()
	return e
}

// Sym returns a named symbol.
func Sym(name string) *Expr { return &Expr{Op: XSym, Name: name} }

// Unknown returns a fresh unknown (used for unmodeled effects).
func Unknown(tag string) *Expr { return &Expr{Op: XUnknown, Name: tag} }

// Bin builds a binary expression.
func Bin(op XOp, x, y *Expr) *Expr { return &Expr{Op: op, X: x, Y: y} }

// Tern builds a ternary expression (carry/overflow with carry-in).
func Tern(op XOp, x, y, z *Expr) *Expr { return &Expr{Op: op, X: x, Y: y, Z: z} }

// Un builds a unary expression.
func Un(op XOp, x *Expr) *Expr { return &Expr{Op: op, X: x} }

// Load builds a memory load of the given size (8 or 32) at version ver.
func Load(size int, addr *Expr, ver int) *Expr {
	op := XLoad32
	if size == 8 {
		op = XLoad8
	}
	return &Expr{Op: op, X: addr, Ver: ver}
}

// Hash returns a structural hash (after-normalization comparisons use
// both Hash and Equal).
func (e *Expr) Hash() uint64 {
	if e.hash != 0 {
		return e.hash
	}
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(e.Op))
	mix(uint64(e.C))
	for _, c := range e.Name {
		mix(uint64(c))
	}
	mix(uint64(e.Ver))
	if e.X != nil {
		mix(e.X.Hash())
	}
	if e.Y != nil {
		mix(e.Y.Hash())
	}
	if e.Z != nil {
		mix(e.Z.Hash())
	}
	if h == 0 {
		h = 1
	}
	e.hash = h
	return h
}

// StructEqual reports deep structural equality. XUnknown never equals
// anything.
func StructEqual(a, b *Expr) bool {
	if a == nil && b == nil {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a == b {
		return a.Op != XUnknown
	}
	if a.Op != b.Op || a.C != b.C || a.Name != b.Name || a.Ver != b.Ver {
		return false
	}
	if a.Op == XUnknown {
		return false
	}
	if a.Hash() != b.Hash() {
		return false
	}
	return StructEqual(a.X, b.X) && StructEqual(a.Y, b.Y) && StructEqual(a.Z, b.Z)
}

// String renders the expression for diagnostics.
func (e *Expr) String() string {
	if e == nil {
		return "<nil>"
	}
	switch e.Op {
	case XConst:
		return fmt.Sprintf("%#x", e.C)
	case XSym:
		return e.Name
	case XUnknown:
		return "unknown(" + e.Name + ")"
	case XLoad8:
		return fmt.Sprintf("ld8@%d[%s]", e.Ver, e.X)
	case XLoad32:
		return fmt.Sprintf("ld32@%d[%s]", e.Ver, e.X)
	}
	names := map[XOp]string{
		XAdd: "+", XSub: "-", XMul: "*", XAnd: "&", XOr: "|", XXor: "^",
		XShl: "<<", XShr: ">>u", XSar: ">>s", XRor: "ror",
		XEq: "==", XNe: "!=", XLtU: "<u", XLeU: "<=u",
	}
	if n, ok := names[e.Op]; ok {
		return "(" + e.X.String() + " " + n + " " + e.Y.String() + ")"
	}
	switch e.Op {
	case XNot:
		return "~" + e.X.String()
	case XNeg:
		return "-" + e.X.String()
	case XClz:
		return "clz(" + e.X.String() + ")"
	case XCarryAdd:
		return fmt.Sprintf("cadd(%s,%s,%s)", e.X, e.Y, e.Z)
	case XCarrySub:
		return fmt.Sprintf("csub(%s,%s,%s)", e.X, e.Y, e.Z)
	case XOvfAdd:
		return fmt.Sprintf("vadd(%s,%s,%s)", e.X, e.Y, e.Z)
	case XOvfSub:
		return fmt.Sprintf("vsub(%s,%s,%s)", e.X, e.Y, e.Z)
	}
	return "?"
}

// commutative reports whether the operator's operands may be reordered.
func commutative(op XOp) bool {
	switch op {
	case XAdd, XMul, XAnd, XOr, XXor, XEq, XNe:
		return true
	}
	return false
}

// Normalize returns a canonical form: constants folded, commutative
// operands ordered, common identities applied. The result shares
// subtrees with the input.
func Normalize(e *Expr) *Expr {
	if e == nil {
		return nil
	}
	switch e.Op {
	case XConst, XSym, XUnknown:
		return e
	}
	x := Normalize(e.X)
	y := Normalize(e.Y)
	z := Normalize(e.Z)

	// Constant folding.
	if isConst(x) && (y == nil || isConst(y)) && (z == nil || isConst(z)) {
		if v, ok := foldConst(e.Op, x, y, z); ok {
			return Const(v)
		}
	}

	// Commutative ordering: smaller hash first (stable canonical order).
	if y != nil && commutative(e.Op) {
		if exprLess(y, x) {
			x, y = y, x
		}
	}

	// Identities.
	switch e.Op {
	case XAdd:
		if isZero(x) {
			return y
		}
		if isZero(y) {
			return x
		}
	case XSub:
		if isZero(y) {
			return x
		}
		if StructEqual(x, y) {
			return Const(0)
		}
	case XXor:
		if isZero(x) {
			return y
		}
		if isZero(y) {
			return x
		}
		if StructEqual(x, y) {
			return Const(0)
		}
	case XOr:
		if isZero(x) {
			return y
		}
		if isZero(y) {
			return x
		}
		if StructEqual(x, y) {
			return x
		}
	case XAnd:
		if isZero(x) || isZero(y) {
			return Const(0)
		}
		if isAllOnes(x) {
			return y
		}
		if isAllOnes(y) {
			return x
		}
		if StructEqual(x, y) {
			return x
		}
	case XMul:
		if isZero(x) || isZero(y) {
			return Const(0)
		}
		if isOne(x) {
			return y
		}
		if isOne(y) {
			return x
		}
	case XNot:
		if x.Op == XNot {
			return x.X
		}
	case XNeg:
		if x.Op == XNeg {
			return x.X
		}
	case XShl, XShr, XSar, XRor:
		if isZero(y) {
			return x
		}
	}

	out := &Expr{Op: e.Op, C: e.C, Name: e.Name, X: x, Y: y, Z: z, Ver: e.Ver}
	return out
}

func isConst(e *Expr) bool   { return e != nil && e.Op == XConst }
func isZero(e *Expr) bool    { return isConst(e) && e.C == 0 }
func isOne(e *Expr) bool     { return isConst(e) && e.C == 1 }
func isAllOnes(e *Expr) bool { return isConst(e) && e.C == 0xffffffff }

func exprLess(a, b *Expr) bool {
	// Constants first, then symbols by name, then by hash.
	ra, rb := rank(a), rank(b)
	if ra != rb {
		return ra < rb
	}
	if a.Op == XConst && b.Op == XConst {
		return a.C < b.C
	}
	if a.Op == XSym && b.Op == XSym {
		return a.Name < b.Name
	}
	return a.Hash() < b.Hash()
}

func rank(e *Expr) int {
	switch e.Op {
	case XConst:
		return 0
	case XSym:
		return 1
	default:
		return 2
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func foldConst(op XOp, x, y, z *Expr) (uint32, bool) {
	a := x.C
	var b, c uint32
	if y != nil {
		b = y.C
	}
	if z != nil {
		c = z.C
	}
	switch op {
	case XAdd:
		return a + b, true
	case XSub:
		return a - b, true
	case XMul:
		return a * b, true
	case XAnd:
		return a & b, true
	case XOr:
		return a | b, true
	case XXor:
		return a ^ b, true
	case XNot:
		return ^a, true
	case XNeg:
		return -a, true
	case XShl:
		return a << (b & 31), true
	case XShr:
		return a >> (b & 31), true
	case XSar:
		return uint32(int32(a) >> (b & 31)), true
	case XRor:
		return bits.RotateLeft32(a, -int(b&31)), true
	case XClz:
		return uint32(bits.LeadingZeros32(a)), true
	case XEq:
		return b2u(a == b), true
	case XNe:
		return b2u(a != b), true
	case XLtU:
		return b2u(a < b), true
	case XLeU:
		return b2u(a <= b), true
	case XCarryAdd:
		return b2u(uint64(a)+uint64(b)+uint64(c) > 0xffffffff), true
	case XCarrySub:
		s := uint64(a) + uint64(^b) + uint64(c)
		return b2u(s > 0xffffffff), true
	case XOvfAdd:
		v := a + b + c
		return b2u((a>>31 == b>>31) && (v>>31 != a>>31)), true
	case XOvfSub:
		nb := ^b
		v := a + nb + c
		return b2u((a>>31 == nb>>31) && (v>>31 != a>>31)), true
	}
	return 0, false
}

// Assignment maps symbol names to concrete values; Seed salts the base
// memory function for concrete load evaluation.
type Assignment struct {
	Vals map[string]uint32
	Seed uint64

	// stores is the concrete store trace used to resolve loads.
	stores []concreteStore
}

type concreteStore struct {
	addr uint32
	val  uint32
	size int
}

// baseMem is the deterministic "initial memory" function.
func baseMem(addr uint32, seed uint64) uint32 {
	h := seed ^ uint64(addr)*0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return uint32(h)
}

// loadConcrete resolves a load against the store trace prefix.
func (as *Assignment) loadConcrete(addr uint32, size, ver int) uint32 {
	get8 := func(a uint32) uint32 {
		for i := ver - 1; i >= 0; i-- {
			s := as.stores[i]
			if s.size == 8 && s.addr == a {
				return s.val & 0xff
			}
			// Unsigned-difference containment so byte addresses wrap
			// like the real memory's uint32 arithmetic (a store at
			// 0xffffffff covers bytes 0xffffffff, 0, 1, 2).
			if s.size == 32 && a-s.addr < 4 {
				return (s.val >> (8 * (a - s.addr))) & 0xff
			}
		}
		return (baseMem(a&^3, as.Seed) >> (8 * (a & 3))) & 0xff
	}
	if size == 8 {
		return get8(addr)
	}
	return get8(addr) | get8(addr+1)<<8 | get8(addr+2)<<16 | get8(addr+3)<<24
}

// Eval computes the concrete value of e under the assignment. Unknown
// nodes yield an error.
func (as *Assignment) Eval(e *Expr) (uint32, error) {
	if e == nil {
		return 0, fmt.Errorf("symexec: eval of nil expr")
	}
	switch e.Op {
	case XConst:
		return e.C, nil
	case XSym:
		v, ok := as.Vals[e.Name]
		if !ok {
			return 0, fmt.Errorf("symexec: unbound symbol %q", e.Name)
		}
		return v, nil
	case XUnknown:
		return 0, fmt.Errorf("symexec: unknown value %q", e.Name)
	case XLoad8, XLoad32:
		a, err := as.Eval(e.X)
		if err != nil {
			return 0, err
		}
		size := 32
		if e.Op == XLoad8 {
			size = 8
		}
		if e.Ver > len(as.stores) {
			return 0, fmt.Errorf("symexec: load version %d beyond trace", e.Ver)
		}
		return as.loadConcrete(a, size, e.Ver), nil
	}
	x, err := as.Eval(e.X)
	if err != nil {
		return 0, err
	}
	var y, z uint32
	if e.Y != nil {
		if y, err = as.Eval(e.Y); err != nil {
			return 0, err
		}
	}
	if e.Z != nil {
		if z, err = as.Eval(e.Z); err != nil {
			return 0, err
		}
	}
	v, ok := foldConst(e.Op, Const(x), Const(y), Const(z))
	if !ok {
		return 0, fmt.Errorf("symexec: cannot evaluate op %d", e.Op)
	}
	return v, nil
}

// Symbols collects the symbol names appearing in e into out.
func Symbols(e *Expr, out map[string]bool) {
	if e == nil {
		return
	}
	if e.Op == XSym {
		out[e.Name] = true
	}
	Symbols(e.X, out)
	Symbols(e.Y, out)
	Symbols(e.Z, out)
}

// SortedSymbols returns the sorted symbol names of several expressions.
func SortedSymbols(es ...*Expr) []string {
	set := map[string]bool{}
	for _, e := range es {
		Symbols(e, set)
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// HasUnknown reports whether the expression contains an XUnknown node.
func HasUnknown(e *Expr) bool {
	if e == nil {
		return false
	}
	if e.Op == XUnknown {
		return true
	}
	return HasUnknown(e.X) || HasUnknown(e.Y) || HasUnknown(e.Z)
}
