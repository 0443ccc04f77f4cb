package testutil

// MemTooSlow10k names the paper queries the mem engine cannot answer on
// a 10k generated document in test time. Measured on a 2-vCPU host, mem
// takes over 40 s on Q4 and Q6, and 1.6–6.4 s on Q5a, Q5b, Q7 and Q8,
// which grow to 38–147 s each under -race; every other query takes
// under 2 s there. The 10k agreement sweeps use mem as their reference
// for every other query and a sequential native configuration for
// these.
var MemTooSlow10k = map[string]bool{
	"q4": true, "q5a": true, "q5b": true, "q6": true, "q7": true, "q8": true,
}
