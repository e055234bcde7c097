// Offload: the paper's motivating scenario — a mobile (guest) binary
// offloaded to a server (host) and executed under the DBT. The example
// ships a "mobile" image-filter kernel, translates it on the "server"
// with leave-one-out rules, and compares the translated execution cost
// against pure emulation.
//
//	go run ./examples/offload
package main

import (
	"fmt"
	"log"

	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/exp"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
)

// filterKernel builds the "mobile app": a saturating blur over a byte
// buffer in the data segment, heavy on loads, stores, shifts and masks.
func filterKernel() *minic.Program {
	const (
		vBase = 1
		vI    = 2
		vAcc  = 3
		vTmp  = 4
	)
	body := []*minic.Stmt{
		minic.Assign(vBase, minic.C(int32(env.DataBase))),
		// Seed the buffer.
		minic.Assign(vI, minic.C(255)),
		minic.While(minic.Cond{Op: minic.CmpNe, L: minic.V(vI), R: minic.C(0)}, []*minic.Stmt{
			minic.StoreB(minic.B(minic.OpAdd, minic.V(vBase), minic.V(vI)),
				minic.B(minic.OpMul, minic.V(vI), minic.C(37))),
			minic.Assign(vI, minic.B(minic.OpSub, minic.V(vI), minic.C(1))),
		}),
		// Box blur: out[i] = (in[i-1] + 2*in[i] + in[i+1]) >> 2, clamped.
		minic.Assign(vI, minic.C(254)),
		minic.While(minic.Cond{Op: minic.CmpNe, L: minic.V(vI), R: minic.C(1)}, []*minic.Stmt{
			minic.Assign(vAcc, minic.LoadB(minic.B(minic.OpAdd, minic.V(vBase), minic.B(minic.OpSub, minic.V(vI), minic.C(1))))),
			minic.Assign(vTmp, minic.LoadB(minic.B(minic.OpAdd, minic.V(vBase), minic.V(vI)))),
			minic.Assign(vAcc, minic.B(minic.OpAdd, minic.V(vAcc), minic.B(minic.OpShl, minic.V(vTmp), minic.C(1)))),
			minic.Assign(vTmp, minic.LoadB(minic.B(minic.OpAdd, minic.V(vBase), minic.B(minic.OpAdd, minic.V(vI), minic.C(1))))),
			minic.Assign(vAcc, minic.B(minic.OpAdd, minic.V(vAcc), minic.V(vTmp))),
			minic.Assign(vAcc, minic.B(minic.OpShr, minic.V(vAcc), minic.C(2))),
			minic.Assign(vAcc, minic.B(minic.OpAnd, minic.V(vAcc), minic.C(255))),
			minic.StoreB(minic.B(minic.OpAdd, minic.B(minic.OpAdd, minic.V(vBase), minic.C(0)), minic.V(vI)), minic.V(vAcc)),
			minic.Assign(vI, minic.B(minic.OpSub, minic.V(vI), minic.C(1))),
		}),
		// Checksum.
		minic.Assign(0, minic.C(0)),
		minic.Assign(vI, minic.C(255)),
		minic.While(minic.Cond{Op: minic.CmpNe, L: minic.V(vI), R: minic.C(0)}, []*minic.Stmt{
			minic.Assign(vTmp, minic.LoadB(minic.B(minic.OpAdd, minic.V(vBase), minic.V(vI)))),
			minic.Assign(0, minic.B(minic.OpXor, minic.B(minic.OpAdd, minic.V(0), minic.V(vTmp)), minic.V(vI))),
			minic.Assign(vI, minic.B(minic.OpSub, minic.V(vI), minic.C(1))),
		}),
		minic.Return(minic.V(0)),
	}
	return &minic.Program{Funcs: []*minic.Func{{Name: "main", NVars: 5, Body: body}}}
}

func main() {
	fmt.Println("offload scenario: mobile guest binary -> server DBT")

	// The server's rule table was trained ahead of time on its corpus
	// (the 12 SPEC stand-ins) — the kernel itself was never seen.
	corpus, err := exp.BuildCorpus(1)
	if err != nil {
		log.Fatal(err)
	}
	union := corpus.Union(corpus.Names)
	par, counts := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})
	fmt.Printf("server rule table: %d learned -> %d applicable rules\n",
		counts.Learned, counts.Instantiated)

	comp, err := minic.Compile(filterKernel())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mobile binary: %d guest instructions\n", len(comp.GuestInsts))

	// Reference result from the interpreter.
	ref, err := comp.RunInterp(50_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference checksum: %#x\n", ref.R[guest.R0])

	// Translate every block at its first execution, as the paper's DBT
	// does, so coverage and host instructions measure translated code.
	run := func(cfg dbt.Config, label string) uint64 {
		cfg.TranslateFirst = true
		m := mem.New()
		if _, err := comp.LoadGuest(m); err != nil {
			log.Fatal(err)
		}
		e := dbt.New(m, cfg)
		init := &guest.State{Mem: m}
		init.R[guest.SP] = env.StackTop
		e.SetGuestState(init)
		st, err := e.Run(env.CodeBase, 100_000_000)
		if err != nil {
			log.Fatal(err)
		}
		got := e.GuestState().R[guest.R0]
		status := "OK"
		if got != ref.R[guest.R0] {
			status = "MISMATCH"
		}
		fmt.Printf("%-14s checksum=%#x [%s] coverage=%5.1f%% host-insts=%d\n",
			label, got, status, 100*st.Coverage(), e.CPU.Total())
		return e.CPU.Total()
	}

	qemu := run(dbt.Config{}, "emulation")
	para := run(dbt.Config{Rules: par, DelegateFlags: true}, "parameterized")
	fmt.Printf("offload speedup from parameterized rules: %.2fx\n",
		float64(qemu)/float64(para))
}
