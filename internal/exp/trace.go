package exp

import (
	"fmt"
	"strings"

	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
)

// TraceRow is one benchmark re-run with hot-trace superblock formation
// on top of the full configuration (leave-one-out parameterized rules,
// flag delegation, chaining).
type TraceRow struct {
	Name         string `json:"name"`
	TracesFormed uint64 `json:"traces_formed"`
	// SuperblockShare is the fraction of block entries that ran a
	// superblock; SideExitRate the fraction of superblock executions
	// that left the trace early through a side-exit stub.
	SuperblockShare float64 `json:"superblock_share"`
	SideExitRate    float64 `json:"side_exit_rate"`
	// HostInsts (superblock run) vs HostInstsChained (the Flags
	// reference run) is the cross-block optimization's effect: seam
	// epilogue/prologue traffic and dead flag stores removed.
	HostInsts        uint64 `json:"host_insts"`
	HostInstsChained uint64 `json:"host_insts_chained"`
	// ResultMatch records that r0 and the retired guest instruction
	// count were identical to the chained reference run.
	ResultMatch bool `json:"result_match"`
}

// TraceSection is the hot-trace superblock experiment: formation and
// dispatch statistics per benchmark, plus mean share/exit footers.
type TraceSection struct {
	HotThreshold        uint64     `json:"hot_threshold"`
	Rows                []TraceRow `json:"rows"`
	MeanSuperblockShare float64    `json:"mean_superblock_share"`
	MeanSideExitRate    float64    `json:"mean_side_exit_rate"`
}

// traceHotThreshold is the formation threshold the experiment uses: low
// enough that every benchmark's hot loops form traces within a run.
const traceHotThreshold = 4

// TraceExperiment re-runs every benchmark with superblock formation
// enabled and compares against the already-computed Flags reference results.
func TraceExperiment(c *Corpus, rs []ModeResults) (*TraceSection, error) {
	s := &TraceSection{HotThreshold: traceHotThreshold}
	var shares, exits []float64
	for _, r := range rs {
		union := c.Union(c.Others(r.Name))
		full, _ := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})
		cfg := dbt.Config{
			Rules:         full,
			DelegateFlags: true,
			HotThreshold:  traceHotThreshold,
		}
		run, err := c.Run(r.Name, cfg)
		if err != nil {
			return nil, fmt.Errorf("trace run %s: %w", r.Name, err)
		}
		ref := r.Flags
		row := TraceRow{
			Name:             r.Name,
			TracesFormed:     run.Stats.TracesFormed,
			SuperblockShare:  run.Stats.SuperblockShare(),
			SideExitRate:     run.Stats.SideExitRate(),
			HostInsts:        run.Total,
			HostInstsChained: ref.Total,
			ResultMatch:      run.R0 == ref.R0 && run.Stats.GuestExec == ref.Stats.GuestExec,
		}
		if !row.ResultMatch {
			return nil, fmt.Errorf("trace run %s: guest-visible result diverged from chained reference", r.Name)
		}
		shares = append(shares, row.SuperblockShare)
		exits = append(exits, row.SideExitRate)
		s.Rows = append(s.Rows, row)
	}
	s.MeanSuperblockShare = mean(shares)
	s.MeanSideExitRate = mean(exits)
	return s, nil
}

// RenderTrace formats the superblock table.
func RenderTrace(s *TraceSection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %7s %12s %10s %11s %11s\n",
		"Benchmark", "traces", "%superblock", "%side-exit", "host-insts", "vs-chained")
	for _, r := range s.Rows {
		delta := 0.0
		if r.HostInstsChained > 0 {
			delta = 100 * (float64(r.HostInsts)/float64(r.HostInstsChained) - 1)
		}
		fmt.Fprintf(&b, "%-12s %7d %11.1f%% %9.1f%% %11d %+10.1f%%\n",
			r.Name, r.TracesFormed, 100*r.SuperblockShare, 100*r.SideExitRate,
			r.HostInsts, delta)
	}
	fmt.Fprintf(&b, "%-12s %7s %11.1f%% %9.1f%%\n",
		"mean", "", 100*s.MeanSuperblockShare, 100*s.MeanSideExitRate)
	return b.String()
}
