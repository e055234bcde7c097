package guard

import (
	"fmt"

	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
)

// RunReference executes a decoded translation block on the reference
// interpreter: st's PC is set to pc and each instruction is stepped in
// order (a block is straight-line by construction — only its final
// instruction redirects control). It returns the block's exit pc, or
// haltPC when the guest halted inside the block. The caller provides a
// state bound to the memory the block should run over — the engine's
// live image under the undo journal, or a copy; after the call the state
// and that memory hold the reference post-block result.
func RunReference(st *guest.State, pc uint32, insts []guest.Inst, haltPC uint32) (uint32, error) {
	st.SetPC(pc)
	for i, in := range insts {
		if st.Halted {
			break
		}
		if err := st.Step(in); err != nil {
			return 0, fmt.Errorf("guard: reference step %d at pc=%#x: %w", i, pc+uint32(i*guest.InstBytes), err)
		}
	}
	if st.Halted {
		return haltPC, nil
	}
	return st.PCVal(), nil
}

// CompareStates compares the reference interpreter's post-block state
// against the translated block's, returning one Mismatch per differing
// register (PC excluded — block exits are compared via their next-pc
// values, see MismatchNextPC) and, when checkFlags is set, per
// differing NZCV flag. Flag comparison must be disabled for blocks that
// delegate flags to the host EFLAGS (branch-tail rules, delegated
// setters): those intentionally leave the CPUState NZCV words stale.
func CompareStates(ref, got *guest.State, checkFlags bool) []Mismatch {
	var out []Mismatch
	for i := 0; i < guest.NumRegs; i++ {
		if guest.Reg(i) == guest.PC {
			continue
		}
		if ref.R[i] != got.R[i] {
			out = append(out, Mismatch{Kind: MismatchReg, Index: uint32(i), Want: ref.R[i], Got: got.R[i]})
		}
	}
	if checkFlags {
		b := func(v bool) uint32 {
			if v {
				return 1
			}
			return 0
		}
		want := [4]uint32{b(ref.Flags.N), b(ref.Flags.Z), b(ref.Flags.C), b(ref.Flags.V)}
		have := [4]uint32{b(got.Flags.N), b(got.Flags.Z), b(got.Flags.C), b(got.Flags.V)}
		for i := range want {
			if want[i] != have[i] {
				out = append(out, Mismatch{Kind: MismatchFlag, Index: uint32(i), Want: want[i], Got: have[i]})
			}
		}
	}
	return out
}

// CompareMemory compares guest-visible memory (all addresses below
// limit) between the reference and translated results, returning up to
// max word mismatches. Addresses at or above limit — the CPUState block
// and the host stack — are translator-private and excluded.
func CompareMemory(ref, got *mem.Memory, limit uint32, max int) []Mismatch {
	var out []Mismatch
	for _, addr := range ref.DiffBelow(got, limit, max) {
		out = append(out, Mismatch{Kind: MismatchMem, Index: addr, Want: ref.Read32(addr), Got: got.Read32(addr)})
	}
	return out
}

// CompareWrites is CompareMemory for two executions of one block from
// one pre-block image, given their write sets (mem.JournalWrites)
// instead of two images: ref is the reference interpreter's, taken
// before its stores were rolled back, got the translated block's, whose
// stores live still holds. A byte only the reference wrote must already
// have held the reference's value, a byte only the translation wrote
// must have been left as it was, and a byte both wrote must agree.
// Every other byte of memory is equal by construction. The result is
// what CompareMemory would report for the two post-block images: up to
// max differing words, lowest address first.
func CompareWrites(ref, got []mem.WriteByte, live *mem.Memory, max int) []Mismatch {
	var out []Mismatch
	for i, j := 0, 0; i < len(ref) || j < len(got); {
		var addr uint32
		var want, have byte
		switch {
		case j == len(got) || i < len(ref) && ref[i].Addr < got[j].Addr:
			addr, want, have = ref[i].Addr, ref[i].New, ref[i].Old
			i++
		case i == len(ref) || got[j].Addr < ref[i].Addr:
			addr, want, have = got[j].Addr, got[j].Old, got[j].New
			j++
		default:
			addr, want, have = ref[i].Addr, ref[i].New, got[j].New
			i++
			j++
		}
		if want == have {
			continue
		}
		word, shift := addr&^3, 8*(addr&3)
		if n := len(out); n == 0 || out[n-1].Index != word {
			if n == max {
				break
			}
			w := live.Read32(word)
			out = append(out, Mismatch{Kind: MismatchMem, Index: word, Want: w, Got: w})
		}
		m := &out[len(out)-1]
		m.Want = m.Want&^(0xff<<shift) | uint32(want)<<shift
	}
	return out
}
