package check

import (
	"testing"

	"sentry/internal/faults"
)

var benchCfg = Config{Platform: "tegra3", Defences: AllDefences(), Faults: faults.None(), Steps: 40}

// BenchmarkColdBoot is the baseline the checkpoint/fork engine displaces:
// building a fresh post-boot world from scratch.
func BenchmarkColdBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewWorld(benchCfg, 1)
	}
}

// BenchmarkFreezeBase measures checkpointing a post-boot world — paid once
// per violating seed by Shrink, then amortised over every candidate replay.
func BenchmarkFreezeBase(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := NewWorld(benchCfg, 1)
		b.StartTimer()
		w.FreezeBase()
	}
}

// BenchmarkSnapshotFork measures stamping out one world from a frozen
// checkpoint — the per-candidate cost during shrinking. O(touched
// metadata), so it must sit well under BenchmarkColdBoot.
func BenchmarkSnapshotFork(b *testing.B) {
	boot := NewWorld(benchCfg, 1)
	boot.FreezeBase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = boot.Fork()
	}
}
