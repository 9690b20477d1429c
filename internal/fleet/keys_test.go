package fleet

import (
	"bytes"
	"context"
	"testing"

	"sentry/internal/core"
)

// Per-device volume keys. Every device forks the same booted base image, so
// without intervention the whole fleet would share one volatile root key —
// recovering it from any single parked delta would unseal every device.
// bootDevice therefore stamps a derived per-device key over the fork before
// anything seals; these tests pin the derivation and the fleet wiring.

// TestDeviceVolKeyDistinct: the derivation never hands two ids the same key
// (checked over a population much larger than any test fleet) and always
// emits a full-size key.
func TestDeviceVolKeyDistinct(t *testing.T) {
	base := []byte("fleet-base-boot!")
	seen := make(map[string]DeviceID, 4096)
	for id := DeviceID(0); id < 4096; id++ {
		k := deviceVolKey(base, id)
		if len(k) != core.VolatileKeySize {
			t.Fatalf("derived key for %d is %d bytes", id, len(k))
		}
		if prev, dup := seen[string(k)]; dup {
			t.Fatalf("ids %d and %d derived the same volume key", prev, id)
		}
		seen[string(k)] = id
	}
	// And the derivation depends on the base key, not just the id.
	other := deviceVolKey([]byte("different-boot!!"), 0)
	if bytes.Equal(other, deviceVolKey(base, 0)) {
		t.Fatal("derived key ignores the base boot key")
	}
}

// parkedVolKey parks nothing itself: it forks device id's parked device
// (the safe read path for parked state) and returns the volume key the
// derivation assigns the device, plus the key actually resident in its
// iRAM. (That the world's scanner hunts for the resident key is
// TestHostOnRekeyedPlatform in internal/check.)
func parkedVolKey(t *testing.T, f *Fleet, id DeviceID) (derived, inIRAM []byte) {
	t.Helper()
	sh, sl := f.peek(id)
	if sl == nil {
		t.Fatalf("device %d has no slot", id)
	}
	sh.mu.Lock()
	p := sl.parked
	sh.mu.Unlock()
	if p == nil {
		t.Fatalf("device %d is not parked", id)
	}
	base := f.base.Fork() // never read the frozen base itself
	return deviceVolKey(base.Sn.Keys().VolatileKey(), id), p.Fork().w.Sn.Keys().VolatileKey()
}

// TestPerDeviceVolumeKeysDiffer boots two devices off the shared base image
// and checks that their volatile keys differ, match what is resident in
// each device's iRAM (so the confidentiality scanner hunts for the right
// bytes), and re-derive identically in a second fleet with the same seed
// (the reboot path runs the same derivation).
func TestPerDeviceVolumeKeysDiffer(t *testing.T) {
	open := func() *Fleet {
		return Open(64, WithSeed(5), WithShards(1), WithResidentCap(1))
	}
	f := open()
	defer f.Stop()
	ctx := context.Background()

	if _, err := f.Do(ctx, 3, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Do(ctx, 9, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	waitParks(t, f, 1)
	key3, iram3 := parkedVolKey(t, f, 3)

	// Cycle device 3 back in so 9 parks in turn.
	if _, err := f.Do(ctx, 3, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	waitParks(t, f, 2)
	key9, iram9 := parkedVolKey(t, f, 9)

	if !bytes.Equal(key3, iram3) || !bytes.Equal(key9, iram9) {
		t.Fatal("derived volume key diverged from the key resident in iRAM")
	}
	if bytes.Equal(key3, key9) {
		t.Fatal("two devices share a volume key")
	}

	// Same fleet seed, fresh fleet: device 3 derives the same key again —
	// which is exactly what its own reboot path does.
	f2 := open()
	defer f2.Stop()
	if _, err := f2.Do(ctx, 3, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Do(ctx, 9, Op{Code: OpTouch}); err != nil {
		t.Fatal(err)
	}
	waitParks(t, f2, 1)
	_, again := parkedVolKey(t, f2, 3)
	if !bytes.Equal(iram3, again) {
		t.Fatal("volume key derivation is not deterministic across boots")
	}
}
