package workload

// The SMC profiles are hand-assembled guest programs that overwrite
// their own instruction stream — the hostile-guest workloads behind the
// self-modifying-code safety layer (internal/mem/track.go, internal/dbt/
// smc.go; docs/ROBUSTNESS.md "Self-modifying code"). They cannot be
// minic programs: the compiler has no way to express a store into the
// code region, so each is built instruction by instruction against the
// guest assembler, with the patch-site address and replacement
// instruction word materialized into registers by a fixed-length
// constant-load sequence.
//
// Each profile is one of the four hazard scenarios the fault campaign
// in docs/ROBUSTNESS.md names:
//
//	smc-patch — write-then-execute inside one block: the store and the
//	  instruction it rewrites share a translation, so the engine must
//	  stop that execution precisely at the store (the self-abort path).
//	smc-cross — cross-block overwrite: a loop patches the first
//	  instruction of a bl-called function; the fence must invalidate
//	  the callee's translation before its next dispatch.
//	smc-sbmid — overwrite mid-superblock: the store sits in a later
//	  trace constituent and rewrites an instruction of the same trace,
//	  after the superblock has formed (HotThreshold + SyncTraces).
//	smc-async — periodic toggling between two encodings of the same
//	  instruction while background formation keeps re-forming the
//	  trace, so invalidations race in-flight formation (the cacheGen
//	  discard seam) and speculation's stale-snapshot shutdown.
//
// Every profile is architecturally deterministic: the DBT result must
// equal a pure interpreter run instruction for instruction, which is
// exactly what the experiments `smc` section asserts at shadow rate 1.

import (
	"fmt"
	"strings"

	"paramdbt/internal/env"
	"paramdbt/internal/guest"
)

// SMCProfile is one self-modifying workload: the program (loaded at
// env.CodeBase) plus the engine configuration its scenario needs.
type SMCProfile struct {
	Name string
	Desc string
	Prog []guest.Inst

	// Engine shape for the scenario (zero values mean: no trace
	// formation, no speculative workers).
	HotThreshold uint64
	SyncTraces   bool
	Workers      int

	// MaxGuestInsts bounds the reference-interpreter replay of the
	// profile (and sizes the engine's host-step budget).
	MaxGuestInsts uint64
}

// smcAsm accumulates an assembly source while tracking instruction
// indexes, so a generator can learn the guest address of a marked
// instruction and re-generate with the real patch constants — layouts
// stay identical across passes because every emitted sequence has a
// fixed length.
type smcAsm struct {
	lines []string
	n     int            // instructions emitted
	marks map[string]int // marked instruction indexes
}

func newSMCAsm() *smcAsm { return &smcAsm{marks: map[string]int{}} }

func (a *smcAsm) ins(format string, args ...any) {
	a.lines = append(a.lines, fmt.Sprintf(format, args...))
	a.n++
}

func (a *smcAsm) label(name string) { a.lines = append(a.lines, name+":") }

// mark records the address-relevant index of the NEXT instruction.
func (a *smcAsm) mark(name string) { a.marks[name] = a.n }

func (a *smcAsm) addr(name string) uint32 {
	return env.CodeBase + uint32(a.marks[name])*guest.InstBytes
}

func (a *smcAsm) assemble() []guest.Inst {
	return guest.MustAssemble(strings.Join(a.lines, "\n"))
}

// loadConst materializes a 32-bit constant byte by byte. Always exactly
// 7 instructions, so generator passes with different constants produce
// identical layouts.
func (a *smcAsm) loadConst(r string, v uint32) {
	a.ins("mov %s, #%d", r, v>>24)
	for shift := 16; shift >= 0; shift -= 8 {
		a.ins("lsl %s, %s, #8", r, r)
		a.ins("orr %s, %s, #%d", r, r, (v>>uint(shift))&0xff)
	}
}

// mustEncode returns the binary word of one assembled instruction.
func mustEncode(src string) uint32 {
	insts := guest.MustAssemble(src)
	if len(insts) != 1 {
		panic(fmt.Sprintf("workload: %q is not one instruction", src))
	}
	w, err := guest.Encode(insts[0])
	if err != nil {
		panic(err)
	}
	return w
}

// genTwoPass runs the generator once with zero constants to learn the
// marked addresses, then again with the real ones.
func genTwoPass(gen func(a *smcAsm, addrOf func(string) uint32)) []guest.Inst {
	probe := newSMCAsm()
	gen(probe, func(string) uint32 { return 0 })
	final := newSMCAsm()
	gen(final, probe.addr)
	if final.n != probe.n {
		panic("workload: smc generator layout changed between passes")
	}
	return final.assemble()
}

// smcPatch: write-then-execute in the store's own block. r0 accumulates
// #1 per iteration until iteration 100 rewrites the accumulate
// instruction — the first of its own block — to add #2.
func smcPatch() []guest.Inst {
	patched := mustEncode("add r0, r0, #2")
	return genTwoPass(func(a *smcAsm, addrOf func(string) uint32) {
		a.ins("mov r0, #0")
		a.ins("mov r1, #0")
		a.ins("mov r4, #200") // iterations
		a.ins("mov r9, #100") // patch iteration
		a.loadConst("r5", addrOf("tgt"))
		a.loadConst("r6", patched)
		a.label("loop")
		a.mark("tgt")
		a.ins("add r0, r0, #1") // rewritten to add #2 at iteration 100
		a.ins("add r1, r1, #1")
		a.ins("cmp r1, r9")
		a.ins("streq r6, [r5]") // the self-modifying store
		a.ins("cmp r1, r4")
		a.ins("blt loop")
		a.ins("hlt")
	})
}

// smcCross: the loop patches the first instruction of the bl-called
// function — a different translation than the one executing the store.
func smcCross() []guest.Inst {
	patched := mustEncode("add r0, r0, #4")
	return genTwoPass(func(a *smcAsm, addrOf func(string) uint32) {
		a.ins("mov r0, #0")
		a.ins("mov r1, #0")
		a.ins("mov r4, #150")
		a.ins("mov r9, #60")
		a.loadConst("r5", addrOf("tgt"))
		a.loadConst("r6", patched)
		a.label("loop")
		a.ins("bl fn")
		a.ins("add r1, r1, #1")
		a.ins("cmp r1, r9")
		a.ins("streq r6, [r5]") // overwrites fn's first instruction
		a.ins("cmp r1, r4")
		a.ins("blt loop")
		a.ins("hlt")
		a.label("fn")
		a.mark("tgt")
		a.ins("add r0, r0, #1") // rewritten to add #4 at iteration 60
		a.ins("bx lr")
	})
}

// smcSBMid: the trace loop→bodyb forms a superblock well before
// iteration 50; the patching store sits in the second constituent and
// rewrites an instruction of the same trace, two slots later.
func smcSBMid() []guest.Inst {
	patched := mustEncode("add r0, r0, #5")
	return genTwoPass(func(a *smcAsm, addrOf func(string) uint32) {
		a.ins("mov r0, #0")
		a.ins("mov r1, #0")
		a.loadConst("r4", 300) // iterations
		a.ins("mov r9, #50")   // patch iteration — after formation
		a.loadConst("r5", addrOf("tgt"))
		a.loadConst("r6", patched)
		a.label("loop")
		a.ins("add r1, r1, #1")
		a.ins("cmp r1, r9")
		a.ins("b bodyb") // forces the trace's second constituent
		a.label("bodyb")
		a.ins("streq r6, [r5]") // mid-superblock self-modifying store
		a.mark("tgt")
		a.ins("add r0, r0, #1") // rewritten to add #5 at iteration 50
		a.ins("cmp r1, r4")
		a.ins("blt loop")
		a.ins("hlt")
	})
}

// smcAsync: toggles the accumulate instruction between two encodings
// every 4 iterations (r1&7 == 0 picks variant B, r1&7 == 4 restores A)
// while background superblock and speculative jobs keep working, so
// invalidations land during in-flight trace formation.
func smcAsync() []guest.Inst {
	variantB := mustEncode("add r0, r0, #2")
	variantA := mustEncode("add r0, r0, #1")
	return genTwoPass(func(a *smcAsm, addrOf func(string) uint32) {
		a.ins("mov r0, #0")
		a.ins("mov r1, #0")
		a.loadConst("r4", 400) // iterations
		a.ins("mov r10, #7")   // toggle mask
		a.loadConst("r5", addrOf("tgt"))
		a.loadConst("r6", variantB)
		a.loadConst("r7", variantA)
		a.label("loop")
		a.ins("add r1, r1, #1")
		a.ins("b part2") // forces a two-block trace
		a.label("part2")
		a.ins("tst r1, r10")
		a.ins("streq r6, [r5]") // every 8th iteration: variant B
		a.ins("eor r2, r1, #4")
		a.ins("tst r2, r10")
		a.ins("streq r7, [r5]") // four later: back to variant A
		a.mark("tgt")
		a.ins("add r0, r0, #1") // the toggled instruction
		a.ins("cmp r1, r4")
		a.ins("blt loop")
		a.ins("hlt")
	})
}

// SMCProfiles lists the self-modifying workloads, in hazard order.
func SMCProfiles() []SMCProfile {
	return []SMCProfile{
		{
			Name: "smc-patch", Desc: "write-then-execute in own block",
			Prog: smcPatch(), MaxGuestInsts: 1 << 20,
		},
		{
			Name: "smc-cross", Desc: "cross-block overwrite of a called function",
			Prog: smcCross(), MaxGuestInsts: 1 << 20,
		},
		{
			Name: "smc-sbmid", Desc: "overwrite mid-superblock",
			Prog: smcSBMid(), HotThreshold: 4, SyncTraces: true,
			MaxGuestInsts: 1 << 20,
		},
		{
			Name: "smc-async", Desc: "toggling overwrite during async trace formation",
			Prog: smcAsync(), HotThreshold: 3, Workers: 2,
			MaxGuestInsts: 1 << 20,
		},
	}
}
