// Quickstart: learn translation rules from one program, parameterize
// them, and run a second program under the DBT — the whole pipeline in
// one page.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/learn"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
)

func main() {
	// 1. A training program: its guest and host compilations are the
	//    learning material. It only uses add/sub.
	training := &minic.Program{Funcs: []*minic.Func{{
		Name: "main", NVars: 4,
		Body: []*minic.Stmt{
			minic.Assign(0, minic.C(0)),
			minic.Assign(1, minic.C(100)),
			minic.While(minic.Cond{Op: minic.CmpNe, L: minic.V(1), R: minic.C(0)}, []*minic.Stmt{
				minic.Assign(0, minic.B(minic.OpAdd, minic.V(0), minic.V(1))),
				minic.Assign(1, minic.B(minic.OpSub, minic.V(1), minic.C(1))),
			}),
			minic.Return(minic.V(0)),
		},
	}}}

	trained, err := minic.Compile(training)
	if err != nil {
		log.Fatal(err)
	}
	learned := rule.NewStore()
	stats := learn.FromCompiled(trained, learned)
	fmt.Printf("learned %d unique rules from %d statements (%d candidates)\n",
		stats.Unique, stats.Statements, stats.Candidates)

	// 2. Parameterize: the learned add rule now derives eor, orr, bic,
	//    shifts, other dependence shapes and immediate forms — every
	//    derivation re-verified symbolically.
	par, counts := core.Parameterize(learned, core.Config{Opcode: true, AddrMode: true})
	fmt.Printf("parameterized into %d applicable rules (%d derived, %d rejected)\n",
		counts.Instantiated, counts.Derived, counts.Rejected)

	// 3. A different program using operators the training never saw.
	workload := &minic.Program{Funcs: []*minic.Func{{
		Name: "main", NVars: 4,
		Body: []*minic.Stmt{
			minic.Assign(0, minic.C(0x5a)),
			minic.Assign(1, minic.C(64)),
			minic.While(minic.Cond{Op: minic.CmpNe, L: minic.V(1), R: minic.C(0)}, []*minic.Stmt{
				minic.Assign(0, minic.B(minic.OpXor, minic.V(0), minic.V(1))), // eor: never trained!
				minic.Assign(0, minic.B(minic.OpOr, minic.V(0), minic.C(3))),  // orr: never trained!
				minic.Assign(1, minic.B(minic.OpSub, minic.V(1), minic.C(1))),
			}),
			minic.Return(minic.V(0)),
		},
	}}}
	comp, err := minic.Compile(workload)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run it under the DBT with and without parameterization. Coverage
	// is the paper's measure of translated code, so every block is
	// translated at its first execution, as in the paper's DBT.
	run := func(cfg dbt.Config, label string) {
		cfg.TranslateFirst = true
		m := mem.New()
		if _, err := comp.LoadGuest(m); err != nil {
			log.Fatal(err)
		}
		e := dbt.New(m, cfg)
		init := &guest.State{Mem: m}
		init.R[guest.SP] = env.StackTop
		e.SetGuestState(init)
		st, err := e.Run(env.CodeBase, 50_000_000)
		if err != nil {
			log.Fatal(err)
		}
		final := e.GuestState()
		fmt.Printf("%-12s result=%d coverage=%5.1f%% host-insts=%d\n",
			label, final.R[guest.R0], 100*st.Coverage(), e.CPU.Total())
	}
	run(dbt.Config{}, "qemu")
	run(dbt.Config{Rules: learned}, "learned")
	run(dbt.Config{Rules: par, DelegateFlags: true}, "parameterized")
}
