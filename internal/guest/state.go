package guest

import (
	"fmt"
	"math"

	"paramdbt/internal/mem"
)

// Flags is the NZCV condition flag set.
type Flags struct {
	N, Z, C, V bool
}

// Eval evaluates a condition code against the flags.
func (f Flags) Eval(c Cond) bool {
	switch c {
	case AL:
		return true
	case EQ:
		return f.Z
	case NE:
		return !f.Z
	case CS:
		return f.C
	case CC:
		return !f.C
	case MI:
		return f.N
	case PL:
		return !f.N
	case VS:
		return f.V
	case VC:
		return !f.V
	case HI:
		return f.C && !f.Z
	case LS:
		return !f.C || f.Z
	case GE:
		return f.N == f.V
	case LT:
		return f.N != f.V
	case GT:
		return !f.Z && f.N == f.V
	case LE:
		return f.Z || f.N != f.V
	}
	return false
}

// String formats the flags as e.g. "nZcv".
func (f Flags) String() string {
	b := []byte("nzcv")
	if f.N {
		b[0] = 'N'
	}
	if f.Z {
		b[1] = 'Z'
	}
	if f.C {
		b[2] = 'C'
	}
	if f.V {
		b[3] = 'V'
	}
	return string(b)
}

// State is the architectural state of the guest machine. The general
// registers, float registers and flags model the CPU; Mem is the shared
// user-mode address space.
type State struct {
	R     [NumRegs]uint32
	F     [NumFRegs]uint32 // float32 bit patterns
	Flags Flags
	Mem   *mem.Memory

	// Halted is set when HLT executes.
	Halted bool

	// InstCount counts instructions retired, for coverage accounting.
	InstCount uint64
}

// NewState returns a state with a fresh memory.
func NewState() *State {
	return &State{Mem: mem.New()}
}

// PCVal returns the current program counter.
func (s *State) PCVal() uint32 { return s.R[PC] }

// SetPC sets the program counter.
func (s *State) SetPC(v uint32) { s.R[PC] = v }

// FFloat returns float register i as a float32.
func (s *State) FFloat(i FReg) float32 { return math.Float32frombits(s.F[i]) }

// SetFFloat sets float register i from a float32.
func (s *State) SetFFloat(i FReg, v float32) { s.F[i] = math.Float32bits(v) }

// Clone deep-copies the state (including memory), for differential tests.
func (s *State) Clone() *State {
	c := *s
	c.Mem = s.Mem.Clone()
	return &c
}

// WithMem returns a register/flag copy of the state bound to a
// different memory, for re-executing from one register state over a
// copy of the image (differential tests).
func (s *State) WithMem(m *mem.Memory) *State {
	c := *s
	c.Mem = m
	return &c
}

// Snapshot formats the register file for debugging.
func (s *State) Snapshot() string {
	out := ""
	for i := 0; i < NumRegs; i++ {
		out += fmt.Sprintf("%-3s=%08x ", Reg(i), s.R[i])
		if i%4 == 3 {
			out += "\n"
		}
	}
	out += "flags=" + s.Flags.String() + "\n"
	return out
}
