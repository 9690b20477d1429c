package fleet

import "testing"

// serveMix is one pass over the serving op mix (sentryload's codes, one
// op each): the work a device does between a hydrate and its next park.
var serveMix = []OpCode{OpPing, OpTouch, OpDiskWrite, OpLock, OpUnlock, OpDiskRead, OpTouch}

// BenchmarkParkHydrate measures one park/hydrate cycle of a served device:
// run the serve mix, park it (Deflate against the fleet's frozen base) and
// hydrate it (Fork). The device boots once, before the timer, so every
// iteration after the first re-parks a device hydrated from a delta — the
// steady state of a fleet with more devices than resident seats. Read B/op
// and allocs/op as the bytes and allocations one cycle costs.
func BenchmarkParkHydrate(b *testing.B) {
	f := Open(4, WithSeed(7))
	defer f.Stop()
	a := &actor{f: f, sl: &slot{id: 1}}
	d, err := a.bootDevice()
	if err != nil {
		b.Fatal(err)
	}
	a.d = d
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, code := range serveMix {
			if _, err := a.exec(Op{Code: code, Arg: uint64(i*len(serveMix) + j)}); err != nil {
				b.Fatalf("%v: %v", code, err)
			}
		}
		a.d.Deflate(f.base)
		a.d = a.d.Fork()
		a.d.w.Sn.Metrics().BindOwner()
	}
}
