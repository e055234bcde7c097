package minic

import (
	"fmt"

	"paramdbt/internal/env"
	"paramdbt/internal/guest"
)

// LinePair is one line-table row: the guest and host instruction
// intervals (function-local indices) generated for one occurrence of a
// statement. Reliable is false when the two compilers emitted a
// different number of chunks for the statement — the modeled GDB-style
// mapping inaccuracy.
type LinePair struct {
	Stmt     int
	G, H     GenEntry
	Reliable bool
}

// CompiledFunc is one compiled function: its optimized source and its
// guest code. The host half is learning material only, so it is not
// kept: GenHost(Fn, i) rebuilds it for function i, and ZipEntries
// pairs the two line tables (internal/learn does both).
type CompiledFunc struct {
	Fn *Func
	G  *GuestFunc
}

// Compiled is a fully compiled program.
type Compiled struct {
	Prog      *Program
	StmtCount int
	Opt       OptStats
	Gone      map[int]bool
	Funcs     []*CompiledFunc

	// Linked guest binary.
	GuestInsts []guest.Inst
	FuncStart  []int
}

// Compile optimizes a program, compiles it to guest code and links the
// guest binary (entry stub + functions).
func Compile(p *Program) (*Compiled, error) { return CompileWith(p, true) }

// CompileWith compiles with the optimizer optionally disabled (-O0);
// the unoptimized build is the oracle for optimizer-soundness tests.
func CompileWith(p *Program, optimize bool) (*Compiled, error) {
	total := p.Number()
	var opt OptStats
	gone := map[int]bool{}
	if optimize {
		opt, gone = Optimize(p)
	}

	c := &Compiled{Prog: p, StmtCount: total, Opt: opt, Gone: gone}

	for _, f := range p.Funcs {
		gf, err := GenGuest(f)
		if err != nil {
			return nil, fmt.Errorf("func %s: %w", f.Name, err)
		}
		c.Funcs = append(c.Funcs, &CompiledFunc{Fn: f, G: gf})
	}

	// Link: stub (bl main; hlt) followed by the functions.
	stubLen := 2
	c.FuncStart = make([]int, len(p.Funcs))
	offset := stubLen
	for i, cf := range c.Funcs {
		c.FuncStart[i] = offset
		offset += len(cf.G.Insts)
	}
	c.GuestInsts = make([]guest.Inst, 0, offset)
	c.GuestInsts = append(c.GuestInsts,
		guest.NewInst(guest.BL, guest.ImmOp(int32(c.FuncStart[0]-stubLen+1-1))), // offset from inst 1
		guest.NewInst(guest.HLT),
	)
	// bl offset: target - (idx+1); idx = 0.
	c.GuestInsts[0].Ops[0].Imm = int32(c.FuncStart[0] - 1)
	for i, cf := range c.Funcs {
		base := c.FuncStart[i]
		for idx, in := range cf.G.Insts {
			if callee, ok := cf.G.CallSites[idx]; ok {
				in.Ops[0].Imm = int32(c.FuncStart[callee] - (base + idx + 1))
			}
			c.GuestInsts = append(c.GuestInsts, in)
		}
	}
	return c, nil
}

// ZipEntries pairs guest and host line-table chunks per statement in
// emission order.
func ZipEntries(g, h []GenEntry) []LinePair {
	byStmtG := map[int][]GenEntry{}
	byStmtH := map[int][]GenEntry{}
	var order []int
	seen := map[int]bool{}
	for _, e := range g {
		byStmtG[e.Stmt] = append(byStmtG[e.Stmt], e)
		if !seen[e.Stmt] {
			seen[e.Stmt] = true
			order = append(order, e.Stmt)
		}
	}
	for _, e := range h {
		byStmtH[e.Stmt] = append(byStmtH[e.Stmt], e)
	}
	var out []LinePair
	for _, stmt := range order {
		gs, hs := byStmtG[stmt], byStmtH[stmt]
		reliable := len(gs) == len(hs)
		n := len(gs)
		if len(hs) < n {
			n = len(hs)
		}
		for k := 0; k < n; k++ {
			out = append(out, LinePair{Stmt: stmt, G: gs[k], H: hs[k], Reliable: reliable})
		}
	}
	return out
}

// LoadGuest writes the linked guest binary into memory at CodeBase and
// returns the entry PC.
func (c *Compiled) LoadGuest(m interface{ Write32(uint32, uint32) }) (uint32, error) {
	if err := guest.LoadProgram(m, env.CodeBase, c.GuestInsts); err != nil {
		return 0, err
	}
	return env.CodeBase, nil
}

// RunInterp executes the compiled program under the guest interpreter
// (the reference oracle) and returns the final state.
func (c *Compiled) RunInterp(maxInsts uint64) (*guest.State, error) {
	st := guest.NewState()
	if _, err := c.LoadGuest(st.Mem); err != nil {
		return nil, err
	}
	st.SetPC(env.CodeBase)
	st.R[guest.SP] = env.StackTop
	st.R[guest.LR] = 0
	if _, err := st.Run(maxInsts); err != nil {
		return nil, err
	}
	return st, nil
}
