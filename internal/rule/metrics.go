package rule

import "paramdbt/internal/obs"

// Rule-retrieval telemetry, registered on the process-wide obs.Default
// registry (the store is shared infrastructure, unlike the per-engine
// dbt counters). Everything here is gated by obs.On(): retrieval stays
// allocation-free and pays one atomic load while telemetry is off.
const (
	MetLookups        = "rule.lookups"        // LookupInto calls
	MetLookupHits     = "rule.lookup_hits"    // lookups that matched a template
	MetMissMemoHits   = "rule.miss_memo_hits" // retired, always 0; stays only while bench/ reads it
	MetMatchAttempts  = "rule.match_attempts" // candidate templates run through Match
	MetInstantiations = "rule.instantiations" // Instantiate calls that emitted host code
)

var (
	metLookups        = obs.Default.Counter(MetLookups)
	metLookupHits     = obs.Default.Counter(MetLookupHits)
	_                 = obs.Default.Counter(MetMissMemoHits)
	metMatchAttempts  = obs.Default.Counter(MetMatchAttempts)
	metInstantiations = obs.Default.Counter(MetInstantiations)
)
