package learn

import (
	"strings"
	"testing"

	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
)

// fixture builds the two halves of a function with chosen variable
// locations, so Abstract can be exercised on hand-picked candidate
// pairs.
func fixture() (*minic.GuestFunc, *minic.HostFunc) {
	return &minic.GuestFunc{Locs: map[int]minic.GLoc{
			0: {InReg: true, Reg: guest.R4},
			1: {InReg: true, Reg: guest.R5},
			2: {InReg: true, Reg: guest.R6},
			3: {InReg: true, Reg: guest.R7}, // host-spilled counterpart
		}},
		&minic.HostFunc{Locs: map[int]minic.HLoc{
			0: {InReg: true, Reg: host.EBX},
			1: {InReg: true, Reg: host.ESI},
			2: {InReg: true, Reg: host.EDI},
			3: {Slot: 0}, // stack-resident on the host
		}}
}

// abstractFixture abstracts a candidate pair against fixture.
func abstractFixture(gseq []guest.Inst, hseq []host.Inst) (*rule.Template, bool) {
	g, h := fixture()
	return Abstract(gseq, hseq, g, h)
}

func TestAbstractVarHomedRegs(t *testing.T) {
	gseq := guest.MustAssemble("add r4, r4, r5")
	hseq := []host.Inst{host.I(host.ADDL, host.R(host.EBX), host.R(host.ESI))}
	tm, ok := abstractFixture(gseq, hseq)
	if !ok {
		t.Fatal("abstraction failed")
	}
	if got := tm.String(); got != "add p0, p0, p1 => addl p1, p0" {
		t.Fatalf("template = %q", got)
	}
}

func TestAbstractSharedImmediateBecomesParam(t *testing.T) {
	gseq := guest.MustAssemble("add r4, r4, #42")
	hseq := []host.Inst{host.I(host.ADDL, host.R(host.EBX), host.Imm(42))}
	tm, ok := abstractFixture(gseq, hseq)
	if !ok {
		t.Fatal("abstraction failed")
	}
	if !strings.Contains(tm.String(), "#i1") {
		t.Fatalf("immediate not parameterized: %q", tm)
	}
}

func TestAbstractUnsharedImmediateStaysFixed(t *testing.T) {
	// mul-by-8 vs shll-by-3: the values differ so both stay literal.
	gseq := guest.MustAssemble("mul r4, r5, r6")
	gseq[0].Ops[2] = guest.ImmOp(8) // force an imm operand shape
	gseq[0].N = 3
	hseq := []host.Inst{
		host.I(host.MOVL, host.R(host.EBX), host.R(host.ESI)),
		host.I(host.SHLL, host.R(host.EBX), host.Imm(3)),
	}
	tm, ok := abstractFixture(gseq, hseq)
	if !ok {
		t.Fatal("abstraction failed")
	}
	s := tm.String()
	if !strings.Contains(s, "#8") || !strings.Contains(s, "#3") {
		t.Fatalf("fixed immediates lost: %q", s)
	}
	if strings.Contains(s, "#i") {
		t.Fatalf("unshared immediates parameterized: %q", s)
	}
}

func TestAbstractHostSpilledVarFails(t *testing.T) {
	// v3 lives in r7 on the guest but on the host stack: the candidate
	// must be dropped (operand-type mismatch).
	gseq := guest.MustAssemble("add r7, r7, r5")
	hseq := []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), host.Mem(host.ESP, 0)),
		host.I(host.ADDL, host.R(host.EAX), host.R(host.ESI)),
		host.I(host.MOVL, host.Mem(host.ESP, 0), host.R(host.EAX)),
	}
	tm, ok := abstractFixture(gseq, hseq)
	if ok {
		// If abstraction finds some structural reading, the verifier
		// must still reject it — the candidate may never become a rule.
		if _, okv := rule.Verify(tm); okv {
			t.Fatalf("host-spilled candidate produced a sound rule: %q", tm)
		}
	}
}

func TestAbstractScratchDetection(t *testing.T) {
	// The host's temp write-before-read becomes a scratch slot.
	gseq := guest.MustAssemble("add r4, r5, r6")
	hseq := []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), host.R(host.ESI)),
		host.I(host.ADDL, host.R(host.EAX), host.R(host.EDI)),
		host.I(host.MOVL, host.R(host.EBX), host.R(host.EAX)),
	}
	tm, ok := abstractFixture(gseq, hseq)
	if !ok {
		t.Fatal("abstraction failed")
	}
	if tm.NScratch == 0 {
		// EAX pairs with the guest temp order only if a guest temp
		// exists; here there is none, so it must be scratch.
		t.Fatalf("no scratch detected: %q", tm)
	}
}

func TestAbstractReadBeforeWriteUnknownRegFails(t *testing.T) {
	// Host reads EDX (no correspondence, never written): must fail.
	gseq := guest.MustAssemble("add r4, r4, r5")
	hseq := []host.Inst{host.I(host.ADDL, host.R(host.EBX), host.R(host.EDX))}
	if _, ok := abstractFixture(gseq, hseq); ok {
		t.Fatal("read of unknown host register accepted")
	}
}

func TestAbstractLRRejected(t *testing.T) {
	gseq := []guest.Inst{guest.NewInst(guest.MOV, guest.RegOp(guest.R4), guest.RegOp(guest.LR))}
	hseq := []host.Inst{host.I(host.MOVL, host.R(host.EBX), host.R(host.EAX))}
	if _, ok := abstractFixture(gseq, hseq); ok {
		t.Fatal("LR-referencing candidate accepted")
	}
}
