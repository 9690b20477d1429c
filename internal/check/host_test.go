package check

import (
	"bytes"
	"testing"

	"sentry/internal/core"
	"sentry/internal/kernel"
	"sentry/internal/soc"
)

// TestHostOnRekeyedPlatform hosts a world on a platform rekeyed after boot,
// the way the fleet hosts every device. The world must hunt for the rekeyed
// volatile key in its post-mortems, not the boot key, and a touch argument
// at or above 2^63 must wrap onto a page instead of going negative.
func TestHostOnRekeyedPlatform(t *testing.T) {
	s := soc.New(soc.Tegra3Profile(), 1)
	k := kernel.New(s, PIN)
	sn, err := core.New(k, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{0x5a}, core.VolatileKeySize)
	if err := sn.Rekey(key); err != nil {
		t.Fatal(err)
	}
	w, err := Host(Config{}, 1, s, k, sn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.volKey0, key) {
		t.Fatalf("hosted world captured key %x, want the rekeyed %x", w.volKey0, key)
	}

	// The byte after the marker is the page index the fill planted.
	buf := make([]byte, w.MarkerLen()+1)
	if err := w.Touch(false, 1<<63+3, buf); err != nil {
		t.Fatalf("touch with arg 2^63+3: %v", err)
	}
	if pg := buf[w.MarkerLen()]; pg != 3 {
		t.Fatalf("touch with arg 2^63+3 read page %d, want 3", pg)
	}
}
