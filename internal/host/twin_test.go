package host

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"paramdbt/internal/mem"
)

// The twin harness: the same block on two CPUs with identical initial
// state, one through CPU.Exec and one through refExec, and a field by
// field comparison of everything a caller can observe afterwards.

// twinState seeds one side of a twin run; it is called once per CPU and
// must do the same thing both times.
type twinState func(c *CPU)

// outcome is what one side of a twin run produced.
type outcome struct {
	res    ExitResult
	errStr string // error text, "" when nil
	errIdx int    // ExecError.Index, -1 when nil
	panicV string // fmt.Sprint of the recovered value, "" when none
}

func runSide(c *CPU, b *Block, maxSteps uint64, exec func(*CPU, *Block, uint64) (ExitResult, error)) (o outcome) {
	o.errIdx = -1
	defer func() {
		if r := recover(); r != nil {
			o.panicV = fmt.Sprint(r)
		}
	}()
	res, err := exec(c, b, maxSteps)
	o.res = res
	if err != nil {
		o.errStr = err.Error()
		if xe, ok := err.(*ExecError); ok {
			o.errIdx = xe.Index
		}
	}
	return o
}

// runTwin executes b under maxSteps on twin CPUs and returns "" when the
// pre-decoded loop and the reference agree on R, X, Flags, every byte of
// memory, the page count, Executed, Steps, NextPC, the error's text and
// Index, and the panic value — and, with tracked set (write tracking on,
// journal armed, the code range [trackLo, trackHi) registered and armed
// as the self range), on the journal length, the self-hit flag and the
// dirty page list; otherwise it describes the first difference.
func runTwin(b *Block, init twinState, maxSteps uint64, tracked bool, trackLo, trackHi uint32) string {
	side := func() *CPU {
		m := mem.New()
		c := NewCPU(m)
		init(c)
		if tracked {
			m.EnableWriteTracking()
			m.TrackRange(trackLo, trackHi)
			m.ArmSMC(true, [][2]uint32{{trackLo, trackHi}})
		}
		return c
	}
	got, want := side(), side()
	og := runSide(got, b, maxSteps, (*CPU).Exec)
	ow := runSide(want, b, maxSteps, refExec)
	switch {
	case og != ow:
		return fmt.Sprintf("outcome: exec %+v, reference %+v", og, ow)
	case got.R != want.R:
		return fmt.Sprintf("R: exec %x, reference %x", got.R, want.R)
	case got.X != want.X:
		return fmt.Sprintf("X: exec %x, reference %x", got.X, want.X)
	case got.Flags != want.Flags:
		return fmt.Sprintf("Flags: exec %v, reference %v", got.Flags, want.Flags)
	case got.Executed != want.Executed:
		return fmt.Sprintf("Executed: exec %v, reference %v", got.Executed, want.Executed)
	case got.Mem.PageCount() != want.Mem.PageCount():
		return fmt.Sprintf("pages: exec %d, reference %d", got.Mem.PageCount(), want.Mem.PageCount())
	}
	// DiffBelow's limit is exclusive and page-aligned: the top page is
	// compared on its own.
	const top = 0xFFFF_F000
	if d := got.Mem.DiffBelow(want.Mem, top, 1); len(d) > 0 {
		return fmt.Sprintf("memory at %#x: exec %#x, reference %#x", d[0], got.Mem.Read32(d[0]), want.Mem.Read32(d[0]))
	}
	for a := uint32(top); a >= top; a += 4 {
		if g, w := got.Mem.Read32(a), want.Mem.Read32(a); g != w {
			return fmt.Sprintf("memory at %#x: exec %#x, reference %#x", a, g, w)
		}
	}
	if tracked {
		if g, w := got.Mem.JournalLen(), want.Mem.JournalLen(); g != w {
			return fmt.Sprintf("journal length: exec %d, reference %d", g, w)
		}
		if g, w := got.Mem.SMCSelfHit(), want.Mem.SMCSelfHit(); g != w {
			return fmt.Sprintf("self hit: exec %v, reference %v", g, w)
		}
		if g, w := fmt.Sprint(got.Mem.TakeDirtyPages()), fmt.Sprint(want.Mem.TakeDirtyPages()); g != w {
			return fmt.Sprintf("dirty pages: exec %s, reference %s", g, w)
		}
		// Rolling both journals back must land on the same image too.
		got.Mem.RollbackJournal()
		want.Mem.RollbackJournal()
		if d := got.Mem.DiffBelow(want.Mem, top, 1); len(d) > 0 {
			return fmt.Sprintf("memory after rollback at %#x", d[0])
		}
	}
	return ""
}

// ---- FuzzExecVsReference ----

// A fuzz input is an 8-byte header — six label bindings (0xff: unbound,
// else an index modulo n+2, so one past the end and beyond are reachable),
// a state seed whose two low bits are also flags (fuzzPinEBP,
// fuzzTrackState), and a budget byte whose top bit turns write tracking
// on — followed by 13-byte instructions: op, cond, cat, then kind, reg,
// mem, shape and value bytes for Dst and for Src. The decoding reaches
// every opcode (and undefined ones) with every operand kind (and an
// undefined one), out-of-range registers and categories, unbound and
// out-of-block labels, backward jumps, and every frame kind both on the
// fast path and where mem.Memory.Frame declines.
const (
	fuzzHeader   = 8
	fuzzInstSize = 13
	fuzzMaxInsts = 64
	fuzzLabels   = 6
)

// Flags in the seed byte. fuzzPinEBP points %ebp at the start of the
// state page instead of a random word near it, so about half of all
// inputs run the frame kinds' fast path. fuzzTrackState makes the
// tracked range (with tracking on) the state page instead of the data
// pages, where Frame must decline.
const (
	fuzzPinEBP     = 1
	fuzzTrackState = 2
)

// fuzzState is the page the state-seeded registers and words sit around.
const fuzzState = 0x0f00_0000

var fuzzScales = [8]uint8{0, 0, 1, 2, 4, 8, 3, 255}

// fuzzDispBases are the displacement bases a memory operand's shape
// byte selects: near zero, the top of the page (up to 4093, one past the
// last frame word), the next page, and the page below.
var fuzzDispBases = [4]int32{0, mem.PageSize - 512, mem.PageSize, -mem.PageSize}

func fuzzOperand(b []byte) Operand {
	kind, reg, m, shape, val := b[0], b[1], b[2], b[3], b[4]
	o := Operand{Kind: OperandKind(kind % 7)}
	// Register fields stay in range unless the kind byte's top bits ask
	// otherwise, so most inputs get past the first instruction.
	mask := byte(7)
	if kind >= 0xe0 {
		mask = 15
	}
	o.Reg = Reg(reg & mask)
	o.XReg = XReg(reg >> 4 & mask)
	o.Base = Reg(m & mask)
	o.Index = Reg(m >> 4 & mask)
	o.Scale = fuzzScales[shape&7]
	o.Imm = int32(int8(val)) << (shape >> 4 & 3 * 8)
	o.Disp = fuzzDispBases[shape>>4&3] + int32(int8(val))*4 + int32(shape>>6&1)
	o.Label = int(val % fuzzLabels)
	return o
}

// fuzzCase is one decoded fuzz input: the block, the initial state, the
// step budget, and the write-tracking setup runTwin gets.
type fuzzCase struct {
	b                *Block
	init             twinState
	maxSteps         uint64
	tracked          bool
	trackLo, trackHi uint32
}

func fuzzDecode(data []byte) fuzzCase {
	var hdr [fuzzHeader]byte
	copy(hdr[:], data)
	body := data[min(len(data), fuzzHeader):]
	n := min(len(body)/fuzzInstSize, fuzzMaxInsts)
	insts := make([]Inst, n)
	for i := range insts {
		f := body[i*fuzzInstSize:]
		in := Inst{Op: Op(f[0] % byte(NumOps+1)), Cond: Cond(f[1] % (NumConds + 2)), Cat: Category(f[2] % 3)}
		if f[2] >= 0xf0 {
			in.Cat = Category(3 + f[2]&3)
		}
		in.Dst, in.Src = fuzzOperand(f[3:8]), fuzzOperand(f[8:13])
		insts[i] = in
	}
	labels := map[int]int{}
	for id := 0; id < fuzzLabels; id++ {
		if hdr[id] != 0xff {
			labels[id] = int(hdr[id]) % (n + 2)
		}
	}
	seed := uint32(hdr[6])*2654435761 + 1
	init := func(c *CPU) {
		s := seed
		next := func() uint32 { s = s*1664525 + 1013904223; return s }
		for i := range c.R {
			// Pointers into a few pages around the data and state regions,
			// so memory operands mostly land near each other; every fourth
			// register is arbitrary.
			switch v := next(); i % 4 {
			case 0:
				c.R[i] = v
			case 1:
				c.R[i] = fuzzState + v>>20&^3
			default:
				c.R[i] = 0x0100_0000 + v>>19
			}
		}
		if hdr[6]&fuzzPinEBP != 0 {
			c.R[EBP] = fuzzState
		}
		for i := range c.X {
			c.X[i] = next()
		}
		f := next()
		c.Flags = Flags{ZF: f&1 != 0, SF: f&2 != 0, CF: f&4 != 0, OF: f&8 != 0}
		for i := uint32(0); i < 64; i++ {
			c.Mem.Write32(fuzzState+i*4, next())
			c.Mem.Write32(0x0100_0000+i*64, next())
		}
	}
	fc := fuzzCase{b: NewBlock(insts, labels), init: init, maxSteps: uint64(hdr[7]&0x7f) * 2, tracked: hdr[7]&0x80 != 0,
		trackLo: 0x0100_0000, trackHi: 0x0100_2000}
	if hdr[6]&fuzzTrackState != 0 {
		fc.trackLo, fc.trackHi = fuzzState, fuzzState+mem.PageSize
	}
	return fc
}

// fuzzEncode is fuzzDecode's inverse for well-formed instructions, used
// to build the seed corpus from readable programs. seed carries the
// fuzzPinEBP and fuzzTrackState flags in its low bits.
func fuzzEncode(insts []Inst, labels map[int]int, seed, budget byte) []byte {
	out := make([]byte, fuzzHeader, fuzzHeader+len(insts)*fuzzInstSize)
	for id := 0; id < fuzzLabels; id++ {
		out[id] = 0xff
		if t, ok := labels[id]; ok {
			out[id] = byte(t)
		}
	}
	out[6], out[7] = seed, budget
	operand := func(o Operand) []byte {
		kind := byte(o.Kind)
		if o.Reg > 7 || o.XReg > 7 || o.Base > 7 || o.Index > 7 {
			kind += 0xe0 // 0xe0 % 7 == 0: the kind survives, the mask widens
		}
		shape := byte(0)
		for i, s := range fuzzScales {
			if s == o.Scale {
				shape = byte(i)
			}
		}
		val := byte(int8(o.Imm))
		switch o.Kind {
		case KindMem:
			val, shape = fuzzEncodeDisp(o.Disp, shape)
		case KindLabel:
			val = byte(o.Label)
		}
		return []byte{kind, byte(o.Reg) | byte(o.XReg)<<4, byte(o.Base) | byte(o.Index)<<4, shape, val}
	}
	for _, in := range insts {
		cat := byte(in.Cat)
		if in.Cat > CatControl {
			cat = 0xf0 | byte(in.Cat-3)
		}
		out = append(out, byte(in.Op), byte(in.Cond), cat)
		out = append(out, operand(in.Dst)...)
		out = append(out, operand(in.Src)...)
	}
	return out
}

// fuzzEncodeDisp returns the value byte and the shape byte, with its
// base and low-bit fields filled in, that decode to disp.
func fuzzEncodeDisp(disp int32, shape byte) (val, shapeOut byte) {
	for k, base := range fuzzDispBases {
		r := disp - base
		if q := r >> 2; q >= -128 && q <= 127 && r&3 <= 1 {
			return byte(int8(q)), shape | byte(k)<<4 | byte(r&3)<<6
		}
	}
	panic(fmt.Sprintf("fuzzEncode: displacement %d is not encodable", disp))
}

// fuzzMatrix is every opcode (and one undefined one) with every operand
// kind in both positions, one instruction per input so a faulting
// opcode cannot hide the operand pairs after it. FuzzExecVsReference
// adds these in code; they also run under plain `go test`.
func fuzzMatrix() [][]byte {
	var out [][]byte
	operands := []Operand{{}, R(ECX), Imm(-3), Mem(EBP, 8), MemIdx(EBP, ESI, 4, 16), X(2), Label(1)}
	for op := Op(0); int(op) <= NumOps; op++ {
		for _, d := range operands {
			for _, s := range operands {
				in := Inst{Op: op, Cond: NE, Dst: d, Src: s, Cat: Category(len(out) % 3)}
				out = append(out, fuzzEncode([]Inst{in, Exit(Imm(7))}, map[int]int{1: 1}, byte(op), 0x80|20))
			}
		}
	}
	return out
}

// fuzzSeeds is the committed file corpus in readable form: the
// malformed and control-flow cases the pre-decoder must hand to the
// slow path unchanged, or handle itself exactly as the reference does.
func fuzzSeeds() map[string][]byte {
	seeds := map[string][]byte{}
	loop := []Inst{
		I(MOVL, R(ECX), Imm(5)),
		I(ADDL, R(EAX), Mem(EBP, 0)),
		I(MOVL, Mem(EBP, 4), R(EAX)),
		I(SUBL, R(ECX), Imm(1)),
		Jcc(NE, 0),
		Exit(R(EAX)),
	}
	seeds["backward-loop"] = fuzzEncode(loop, map[int]int{0: 1}, 1, 100)
	seeds["backward-loop-budget"] = fuzzEncode(loop, map[int]int{0: 1}, 1, 0x80|7)
	seeds["unbound-label"] = fuzzEncode([]Inst{Jmp(3), Exit(Imm(0))}, nil, 2, 10)
	seeds["label-past-end"] = fuzzEncode([]Inst{I(CMPL, R(EAX), R(EAX)), Jcc(E, 2), Exit(Imm(0))}, map[int]int{2: 4}, 3, 10)
	seeds["bad-register"] = fuzzEncode([]Inst{I(MOVL, R(EAX), Imm(1)), I(ADDL, R(Reg(11)), R(EAX)), Exit(Imm(0))}, nil, 4, 10)
	seeds["bad-base"] = fuzzEncode([]Inst{I(MOVL, R(EAX), Mem(Reg(9), 4)), Exit(Imm(0))}, nil, 5, 10)
	seeds["bad-category"] = fuzzEncode([]Inst{I(MOVL, R(EAX), Imm(1)), I(MOVL, R(ECX), Imm(2)).WithCat(5), Exit(Imm(0))}, nil, 6, 10)
	seeds["falls-off-end"] = fuzzEncode([]Inst{I(MOVL, R(EAX), Imm(1))}, nil, 7, 10)
	seeds["exit-through-memory"] = fuzzEncode([]Inst{I(MOVL, Mem(EBP, 0), Imm(0x44)), Exit(Mem(EBP, 0))}, nil, 8, 0x80|10)
	seeds["push-pop"] = fuzzEncode([]Inst{I1(PUSHL, R(EDX)), I1(POPL, Mem(EBP, 8)), {Op: RET}}, nil, 9, 0x80|10)

	// The frame kinds. Loads and stores at the first and last frame word
	// and just outside the frame (the next page, the page below, a word
	// straddling the page end), which must stay plain kinds.
	edges := []Inst{
		I(MOVL, R(EAX), Mem(EBP, 0)),
		I(MOVL, Mem(EBP, 4092), R(EAX)),
		I(MOVL, R(ECX), Mem(EBP, 4092)),
		I(MOVL, Mem(EBP, 0), Imm(-7)),
		I(MOVL, Mem(EBP, 4096), R(ECX)),
		I(MOVL, R(EDX), Mem(EBP, 4096)),
		I(MOVL, Mem(EBP, -4), Imm(9)),
		I(MOVL, R(ESI), Mem(EBP, -4)),
		I(MOVL, Mem(EBP, 4093), R(EDX)),
		I(MOVL, R(EDI), Mem(EBP, 4093)),
		Exit(R(EAX)),
	}
	seeds["frame-edges-journal"] = fuzzEncode(edges, nil, fuzzPinEBP|8, 0x80|40)
	seeds["frame-edges-nojournal"] = fuzzEncode(edges, nil, fuzzPinEBP|8, 40)
	// Every ALU opcode in each frame form: frame source, frame
	// destination with a register and with an immediate source.
	var alu []Inst
	for _, op := range []Op{ADDL, ADCL, SUBL, SBBL, ANDL, ORL, XORL, IMULL, SHLL, SHRL, SARL, RORL, CMPL, TESTL} {
		alu = append(alu,
			I(op, R(EAX), Mem(EBP, 8)),
			I(op, Mem(EBP, 12), R(ECX)),
			I(op, Mem(EBP, 4092), Imm(3)))
	}
	alu = append(alu, I1(NOTL, Mem(EBP, 16)), I1(NEGL, Mem(EBP, 20)), Exit(R(EAX)))
	seeds["frame-alu-journal"] = fuzzEncode(alu, nil, fuzzPinEBP|4, 0x80|60)
	seeds["frame-alu-nojournal"] = fuzzEncode(alu, nil, fuzzPinEBP|4, 60)
	// A block that moves %ebp before reading a slot: no frame kinds.
	seeds["frame-ebp-written"] = fuzzEncode([]Inst{
		I(MOVL, R(EAX), Mem(EBP, 0)),
		I(LEAL, R(EBP), Mem(EBP, 64)),
		I(MOVL, R(ECX), Mem(EBP, 0)),
		I(MOVL, Mem(EBP, 4), R(EAX)),
		I(ADDL, Mem(EBP, 8), R(ECX)),
		Exit(R(ECX)),
	}, nil, fuzzPinEBP|4, 0x80|10)
	// Tracking covers the state page: Frame declines, and the stores must
	// dirty the page and hit the self range exactly as Write32's do.
	seeds["frame-state-tracked"] = fuzzEncode([]Inst{
		I(MOVL, R(EAX), Mem(EBP, 4)),
		I(MOVL, Mem(EBP, 0), R(EAX)),
		I(ADDL, Mem(EBP, 8), Imm(1)),
		Exit(R(EAX)),
	}, nil, fuzzPinEBP|fuzzTrackState, 0x80|10)
	return seeds
}

const corpusDir = "testdata/fuzz/FuzzExecVsReference"

// TestFuzzCorpusCurrent keeps the committed seed corpus equal to what
// fuzzSeeds generates, so a change to the input encoding cannot silently
// turn the seeds into noise; files the fuzzer itself added are left
// alone.
func TestFuzzCorpusCurrent(t *testing.T) {
	for name, data := range fuzzSeeds() {
		path := filepath.Join(corpusDir, "seed-"+name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s is missing or stale (%v); it should contain:\n%s", path, err, want)
		}
	}
}

// FuzzExecVsReference runs random instruction streams through CPU.Exec
// and through the reference interpreter; they must agree on the result
// or on the panic, and on all state either way.
func FuzzExecVsReference(f *testing.F) {
	for _, data := range fuzzMatrix() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := fuzzDecode(data)
		if d := runTwin(fc.b, fc.init, fc.maxSteps, fc.tracked, fc.trackLo, fc.trackHi); d != "" {
			t.Fatalf("%s\nbudget %d tracked %v [%#x, %#x)\n%s", d, fc.maxSteps, fc.tracked, fc.trackLo, fc.trackHi, fc.b.Listing())
		}
	})
}

// TestFuzzEncodeRoundTrip pins fuzzEncode to fuzzDecode, so the seeds
// exercise the instructions they are written as.
func TestFuzzEncodeRoundTrip(t *testing.T) {
	insts := []Inst{
		I(ADDL, R(EAX), Mem(EBP, 8)).WithCat(CatDataTransfer),
		I(MOVL, MemIdx(EBP, ESI, 4, -16), Imm(-3)),
		I(ADDL, R(Reg(11)), X(2)).WithCat(5),
		{Op: SETCC, Cond: G, Dst: Mem(Reg(9), 4)},
		I(MOVL, Mem(EBP, 4092), R(EAX)),
		I(MOVL, R(EAX), Mem(EBP, 4093)),
		I(MOVL, Mem(EBP, 4096), Imm(1)),
		I(SUBL, R(ECX), Mem(EBP, -4)),
		I(MOVL, R(ECX), Mem(EBP, -4095)),
		Jcc(NE, 1),
		Exit(Imm(7)),
	}
	labels := map[int]int{1: 0, 4: 6}
	fc := fuzzDecode(fuzzEncode(insts, labels, fuzzTrackState|fuzzPinEBP, 0x80|21))
	if fc.maxSteps != 42 || !fc.tracked || fc.trackLo != fuzzState || fc.trackHi != fuzzState+mem.PageSize {
		t.Fatalf("budget %d tracked %v [%#x, %#x)", fc.maxSteps, fc.tracked, fc.trackLo, fc.trackHi)
	}
	b := fc.b
	if fmt.Sprint(b.Labels()) != fmt.Sprint(labels) {
		t.Fatalf("labels %v, want %v", b.Labels(), labels)
	}
	cpu := NewCPU(mem.New())
	fc.init(cpu)
	if cpu.R[EBP] != fuzzState {
		t.Fatalf("pinned %%ebp = %#x", cpu.R[EBP])
	}
	for i, in := range insts {
		got := b.Insts[i]
		// Fields the operand's kind does not use are not preserved.
		if got.String() != in.String() || got.Cat != in.Cat || got.Op != in.Op {
			t.Errorf("inst %d: %v (cat %d), want %v (cat %d)", i, got, got.Cat, in, in.Cat)
		}
	}
}

// TestExecCountsAcrossFlushes runs a loop longer than countChunk, so the
// packed counter is flushed mid-run, to completion and under budgets on
// both sides of the flush boundary.
func TestExecCountsAcrossFlushes(t *testing.T) {
	a := NewAsm()
	top := a.NewLabel()
	a.Emit(I(MOVL, R(ECX), Imm(countChunk/4)))
	a.Bind(top)
	a.SetCat(CatDataTransfer)
	a.Emit(I(ADDL, R(EAX), Mem(EBP, 0)))
	a.Emit(I(MOVL, Mem(EBP, 4), R(EAX)))
	a.SetCat(CatCompute)
	a.Emit(I(XORL, R(EAX), R(ECX)))
	a.Emit(I(SUBL, R(ECX), Imm(1)))
	a.SetCat(CatControl)
	a.Emit(Jcc(NE, top))
	a.Emit(Exit(R(EAX)))
	b := a.Block()
	init := func(c *CPU) {
		c.R[EBP] = 0x0f00_0000
		c.Mem.Write32(0x0f00_0000, 3)
	}
	for _, budget := range []uint64{countChunk - 1, countChunk, countChunk + 1, 2*countChunk + 3, 1 << 40} {
		if d := runTwin(b, init, budget, false, 0, 0); d != "" {
			t.Errorf("budget %d: %s", budget, d)
		}
	}
}
