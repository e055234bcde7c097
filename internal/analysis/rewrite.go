// Rewrite validation: prove an optimized host stream equivalent to the
// host stream it was optimized from.
//
// ValidateBlock proves a host stream against the guest block it
// translates. A post-Finalize optimizer's output owes less: the
// optimized and the unoptimized stream run on the same machine from the
// same state, so it is enough that both leave the same guest-visible
// state behind. That obligation needs no guest path enumeration, no path
// matching and no guest-grounding gate. Each stream's paths are
// enumerated and evaluated exactly as ValidateBlock evaluates its host
// side (enumHostPaths), the two streams' paths are paired in enumeration
// order, and each pair is decided by the same proof ladder. The risc
// peephole only deletes flag-transparent MOVLs, so both streams almost
// always evaluate to the same expressions and the proof is structural.
package analysis

import (
	"fmt"
	"strconv"

	"paramdbt/internal/env"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
)

// rewriteSides names the two sides of a rewrite path pair in mismatch
// reasons.
var rewriteSides = [2]string{"before", "after"}

// rewriteWords lists the CPUState words a rewrite must preserve: every
// word that is not translator-private. That is everything below the
// spill area (guest registers r0-r15, the NZCV words, the float
// registers) plus the superblock side-exit slot; the spill slots,
// OffBorrow and OffLegal0/1 are free.
var rewriteWords = func() []uint32 {
	var words []uint32
	for off := uint32(0); off < env.OffScratch; off += 4 {
		words = append(words, off)
	}
	return append(words, env.OffSBExit)
}()

// ValidateRewrite proves (or fails to prove) that executing after is
// observably equivalent to executing before, from any one host state.
// On every path both streams must agree on the path predicate, the exit
// PC, every CPUState word in rewriteWords and the ordered guest store
// trace (count, size, address, value). The host registers are free. The
// streams must share one branch skeleton: the same number of paths,
// each taking the same (condition, direction) decisions, in enumeration
// order; otherwise the verdict is inconclusive.
//
// Both streams are finalized code, so there is nothing left for a
// backend to admit: they are evaluated under plain symexec host
// semantics, and the caller stamps the report's backend and PC. The
// NZCV words are always compared, because both sides start from one
// state and nothing licenses stale flag words on one side only. An
// initial-value symbol — a host register or EFLAGS bit read before it
// is written, a CPUState word read before it is stored — is the same
// value on both sides, so no symbol is gated. "refuted" is only
// returned with a witness that diverges when both streams run on host
// CPUs from the same state.
func ValidateRewrite(before, after *host.Block) *BlockReport {
	rep := &BlockReport{Obligation: ObligationRewrite, Verdict: VerdictInconclusive, HostInsts: len(after.Insts)}
	defer countVerdict(rep)
	if len(before.Insts) == 0 || len(after.Insts) == 0 {
		rep.Reason = "empty host stream"
		return rep
	}
	bps, why := enumHostPaths(before, defaultMaxPaths, rewriteWords)
	if why != "" {
		rep.Reason = "before: " + why
		return rep
	}
	aps, why := enumHostPaths(after, defaultMaxPaths, rewriteWords)
	if why != "" {
		rep.Reason = "after: " + why
		return rep
	}
	if len(bps) != len(aps) {
		rep.Reason = fmt.Sprintf("path count mismatch: %d before vs %d after", len(bps), len(aps))
		return rep
	}
	for i := range bps {
		if !sameDecisions(bps[i].decs, aps[i].decs) {
			rep.Reason = fmt.Sprintf("branch skeleton mismatch on path %d", i)
			return rep
		}
	}
	rep.Paths = len(bps)

	l := &ladder{rep: rep, best: ProofStructural, replay: func(vals map[string]uint32) bool {
		return replayRewriteDiverges(before, after, vals)
	}}
	for i, bp := range bps {
		ap := aps[i]
		pb, pa := conj(bp.preds), conj(ap.preds)
		if l.apply(decideBlockCheck(checkPair{
			name: "pred", g: pb, h: pa, gStores: bp.gStores, hStores: ap.gStores,
		}, nil), "pred") {
			return rep
		}
		checks, why := buildBlockChecks(bp.effects, ap.effects, rewriteWords, rewriteSides)
		if why != "" {
			l.fail(why)
			continue
		}
		cond := &condPair{g: pb, h: pa}
		for _, c := range checks {
			if l.apply(decideBlockCheck(c, cond), c.name) {
				return rep
			}
		}
	}
	l.close()
	return rep
}

// sameDecisions reports whether two paths take the same branches: the
// same conditions in the same directions. Where each JCC sits in its
// stream may differ.
func sameDecisions(a, b []hDecision) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].cond != b[i].cond || a[i].taken != b[i].taken {
			return false
		}
	}
	return true
}

// replayRewriteDiverges runs both streams on host CPUs seeded
// identically from the witness (host registers, EBP and ESP excepted,
// EFLAGS and every CPUState word, over otherwise zeroed memory) and
// reports whether anything the rewrite contract covers differs. Only a
// true result licenses a refuted verdict.
func replayRewriteDiverges(before, after *host.Block, vals map[string]uint32) bool {
	run := func(b *host.Block) (*host.CPU, uint32, bool) {
		m := mem.New()
		cpu := host.NewCPU(m)
		for r := range cpu.R {
			cpu.R[r] = vals["h"+strconv.Itoa(r)]
		}
		cpu.R[host.EBP] = env.StateBase
		cpu.R[host.ESP] = env.HostStackTop
		cpu.Flags = host.Flags{
			ZF: vals["hz"]&1 != 0, SF: vals["hs"]&1 != 0,
			CF: vals["hc"]&1 != 0, OF: vals["ho"]&1 != 0,
		}
		for off := uint32(0); off < env.Size; off += 4 {
			m.Write32(env.StateBase+off, vals[envInitSym(off).Name])
		}
		res, err := cpu.Exec(b, replayMaxSteps)
		return cpu, res.NextPC, err == nil
	}
	c0, pc0, ok0 := run(before)
	c1, pc1, ok1 := run(after)
	if !ok0 || !ok1 {
		return false // cannot confirm
	}
	if pc0 != pc1 {
		return true
	}
	for _, off := range rewriteWords {
		if c0.Mem.Read32(env.StateBase+off) != c1.Mem.Read32(env.StateBase+off) {
			return true
		}
	}
	// Guest-visible memory: everything below the CPUState frame.
	return len(c0.Mem.DiffBelow(c1.Mem, env.StateBase, replayMemDiffMax)) > 0
}
