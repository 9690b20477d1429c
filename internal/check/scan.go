package check

import (
	"bytes"

	"sentry/internal/attack"
	"sentry/internal/kernel"
	"sentry/internal/mem"
	"sentry/internal/soc"
)

// scanner holds the scan clauses of the confidentiality invariant over one
// world's platform: World.scan runs the live ones, World.postMortem the
// after-power-loss ones, and World.NearMiss the relaxed remanence scan.
//
// The scanner borrows the platform; it never mutates simulated memory
// except through the legal masked clean the writeback clause requires.
// Violations it returns carry Clause and Detail only — schedule context
// (Step, Op) is the caller's to fill in.
type scanner struct {
	S *soc.SoC
	K *kernel.Kernel
	// Marker is the plaintext the protected workload planted; finding it
	// where an attacker could read it is a violation.
	Marker []byte
	// VolKey0 is the volatile root key as generated at boot. Ciphertext
	// sealed under it must stay safe even after deep-lock zeroizes the
	// live copy, so the post-mortem keyfinder compares against this.
	VolKey0 []byte
}

// ScanLive enforces the live locked-state clauses — (dram) and (writeback).
// Call it only while the device is locked; the unlocked plaintext window is
// the exposure the paper's threat model accepts.
func (sc *scanner) ScanLive() *Violation {
	// (dram) the raw DRAM chips, exactly as a physical attacker would read
	// them this instant.
	if attack.Contains(sc.S.DRAM.Store(), sc.Marker) {
		return &Violation{Clause: "dram", Detail: "plaintext marker resident in DRAM chips"}
	}
	// (writeback) the projection one legal masked clean away: the hardware
	// may write back any dirty unlocked-way line at any moment, so clean
	// them (locked ways stay masked out) and rescan.
	sc.S.L2.CleanWays(sc.K.FlushMask())
	if attack.Contains(sc.S.DRAM.Store(), sc.Marker) {
		return &Violation{Clause: "writeback", Detail: "plaintext reaches DRAM on a legal masked write-back"}
	}
	return nil
}

// nearMissSlack relaxes the remanence decay budget for near-miss detection:
// an image that fails the marker match only because decay chewed a few more
// bytes than fuzzBudget tolerates was one colder boot away from a violation.
const nearMissSlack = 8

// NearMiss scans the decayed image with the remanence clause's decay budget
// relaxed. It reports true when the marker is recoverable within the relaxed
// budget but (by construction of the caller) was not within the strict one —
// a schedule that ended adjacent to a violation. The explorer banks such
// prefixes into its corpus for future campaigns.
func (sc *scanner) NearMiss() bool {
	relaxed := fuzzBudget*4 + nearMissSlack
	return attack.FuzzyContains(sc.S.DRAM.Store(), sc.Marker, relaxed) ||
		attack.FuzzyContains(sc.S.IRAM.Store(), sc.Marker, relaxed)
}

// PostMortem enforces the after-power-loss clauses — (remanence) and (key) —
// over the decayed memory image. Call it after a power cut that happened
// while the device was locked.
func (sc *scanner) PostMortem(why string) *Violation {
	// (remanence) recoverable plaintext, tolerant of per-byte decay.
	if attack.FuzzyContains(sc.S.DRAM.Store(), sc.Marker, fuzzBudget) {
		return &Violation{Clause: "remanence", Detail: "plaintext marker recoverable from DRAM image after " + why}
	}
	if attack.FuzzyContains(sc.S.IRAM.Store(), sc.Marker, fuzzBudget) {
		return &Violation{Clause: "remanence", Detail: "plaintext marker recoverable from iRAM image after " + why}
	}
	// (key) the volatile root key, via the Halderman-style keyfinder.
	for _, st := range []*mem.Store{sc.S.IRAM.Store(), sc.S.DRAM.Store()} {
		for _, key := range attack.FindAESKeys(st) {
			if bytes.Equal(key, sc.VolKey0) {
				return &Violation{Clause: "key", Detail: "volatile root key recoverable from memory image after " + why}
			}
		}
	}
	return nil
}
