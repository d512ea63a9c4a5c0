package workload

// Catalog returns the standard scenario suite at gate scale: small
// enough that the full deployment × scenario matrix runs under -race
// in the -scenarios gate, large enough that windows close, flushes
// interleave, and the sieve reconfigures continuously.
func Catalog(fuzzSeed int64) []Scenario {
	return []Scenario{
		Streaming("stream-int64", streamSpec{records: 1200, keys: 12, window: 4, shards: 3, batch: 32}),
		Streaming("stream-float64", streamSpec{records: 1000, keys: 10, window: 5, shards: 2, batch: 24, float: true}),
		Sieve(true),
		NewFuzzPlan(fuzzSeed).Scenario(),
	}
}
