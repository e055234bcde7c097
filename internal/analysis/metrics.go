package analysis

import "paramdbt/internal/obs"

// Audit telemetry, registered on obs.Default and gated by obs.On() like
// the rest of the repo's met* counters (docs/OBSERVABILITY.md).
const (
	MetAudits       = "analysis.audits"           // AuditRule calls
	MetSound        = "analysis.sound"            // sound verdicts
	MetUnsound      = "analysis.unsound"          // unsound verdicts (confirmed witness)
	MetInconclusive = "analysis.inconclusive"     // inconclusive verdicts
	MetProofStruct  = "analysis.proof_structural" // sound via structural equality alone
	MetProofAbs     = "analysis.proof_abstract"   // sound via abstract-domain simplification
	MetProofSweep   = "analysis.proof_sweep"      // sound via exhaustive immediate sweep
	MetWitnesses    = "analysis.witnesses"        // confirmed divergence witnesses
	MetGateRejects  = "analysis.gate_rejects"     // admission-gate rejections

	// Translation-validation telemetry (validate.go, rewrite.go).
	MetValidateBlocks  = "analysis.validate_blocks"       // ValidateBlock and ValidateRewrite calls
	MetValidateProved  = "analysis.validate_proved"       // proved verdicts
	MetValidateInconcl = "analysis.validate_inconclusive" // inconclusive verdicts
	MetValidateRefuted = "analysis.validate_refuted"      // refuted verdicts (confirmed witness)
)

var (
	metAudits       = obs.Default.Counter(MetAudits)
	metSound        = obs.Default.Counter(MetSound)
	metUnsound      = obs.Default.Counter(MetUnsound)
	metInconclusive = obs.Default.Counter(MetInconclusive)
	metProofStruct  = obs.Default.Counter(MetProofStruct)
	metProofAbs     = obs.Default.Counter(MetProofAbs)
	metProofSweep   = obs.Default.Counter(MetProofSweep)
	metWitnesses    = obs.Default.Counter(MetWitnesses)
	metGateRejects  = obs.Default.Counter(MetGateRejects)

	metValidateBlocks  = obs.Default.Counter(MetValidateBlocks)
	metValidateProved  = obs.Default.Counter(MetValidateProved)
	metValidateInconcl = obs.Default.Counter(MetValidateInconcl)
	metValidateRefuted = obs.Default.Counter(MetValidateRefuted)
)
