package core

import (
	"bytes"
	"testing"

	"sentry/internal/kernel"
	"sentry/internal/mem"
	"sentry/internal/mmu"
	"sentry/internal/soc"
)

const pin = "4321"

func bootTegra(t *testing.T, cfg Config) (*Sentry, *kernel.Kernel, *soc.SoC) {
	t.Helper()
	s := soc.Tegra3(1)
	k := kernel.New(s, pin)
	sn, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sn, k, s
}

func bootNexus(t *testing.T) (*Sentry, *kernel.Kernel, *soc.SoC) {
	t.Helper()
	s := soc.Nexus4(1)
	k := kernel.New(s, pin)
	sn, err := New(k, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return sn, k, s
}

// fillSecret writes a recognisable secret over every page of p's mapping.
func fillSecret(t *testing.T, s *soc.SoC, k *kernel.Kernel, p *kernel.Process, base mmu.VirtAddr, pages int) []byte {
	t.Helper()
	k.Switch(p)
	secret := bytes.Repeat([]byte("TOP-SECRET-EMAIL"), pages*mem.PageSize/16)
	if err := s.CPU.Store(base, secret); err != nil {
		t.Fatal(err)
	}
	return secret
}

// dramHolds reports whether the DRAM chips (after draining the unlocked
// part of the cache) contain needle anywhere in the given process frames.
func dramHolds(s *soc.SoC, p *kernel.Process, needle []byte) bool {
	buf := make([]byte, mem.PageSize)
	for _, v := range p.AS.Pages() {
		pte := p.AS.Lookup(v)
		frame := mem.PageBase(pte.Phys)
		if frame < soc.DRAMBase {
			continue
		}
		s.DRAM.Read(frame, buf)
		if bytes.Contains(buf, needle) {
			return true
		}
	}
	return false
}

func TestEncryptOnLockRemovesPlaintextFromDRAM(t *testing.T) {
	sn, k, s := bootTegra(t, Config{})
	p := k.NewProcess("twitter", true, false)
	base, _ := k.MapAnon(p, 8)
	fillSecret(t, s, k, p, base, 8)

	k.Lock()
	// Drain what the OS may legally flush, then check DRAM *and* cache.
	s.L2.CleanWays(sn.flushMask())
	if dramHolds(s, p, []byte("TOP-SECRET-EMAIL")) {
		t.Fatal("plaintext in DRAM after lock")
	}
	if sn.Stats().LockEncryptedBytes != 8*mem.PageSize {
		t.Fatalf("encrypted %d bytes", sn.Stats().LockEncryptedBytes)
	}
	if p.Schedulable {
		t.Fatal("non-background sensitive process still schedulable while locked")
	}
}

func TestNonSensitiveProcessesUntouched(t *testing.T) {
	_, k, s := bootTegra(t, Config{})
	p := k.NewProcess("calculator", false, false)
	base, _ := k.MapAnon(p, 2)
	k.Switch(p)
	_ = s.CPU.Store(base, []byte("public-data-page"))
	k.Lock()
	got := make([]byte, 16)
	frame := p.AS.Lookup(base).Phys
	s.L2.CleanWays(s.L2.AllWaysMask())
	s.DRAM.Read(frame, got)
	if !bytes.Equal(got, []byte("public-data-page")) {
		t.Fatal("non-sensitive pages must not be encrypted")
	}
	if !p.Schedulable {
		t.Fatal("non-sensitive process parked")
	}
}

func TestDecryptOnDemandAfterUnlock(t *testing.T) {
	sn, k, s := bootTegra(t, Config{})
	p := k.NewProcess("maps", true, false)
	base, _ := k.MapAnon(p, 4)
	secret := fillSecret(t, s, k, p, base, 4)

	k.Lock()
	if err := k.Unlock(pin); err != nil {
		t.Fatal(err)
	}
	// Nothing decrypted yet — laziness.
	if sn.Stats().DemandDecryptedBytes != 0 {
		t.Fatal("unlock decrypted eagerly")
	}
	// First touch decrypts exactly the touched page.
	k.Switch(p)
	got := make([]byte, 16)
	if err := s.CPU.Load(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret[:16]) {
		t.Fatalf("decrypted data wrong: %q", got)
	}
	st := sn.Stats()
	if st.DemandDecryptedBytes != mem.PageSize || st.DemandFaults != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Reading the rest of the process decrypts the remaining pages.
	full := make([]byte, 4*mem.PageSize)
	if err := s.CPU.Load(base, full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, secret) {
		t.Fatal("full decrypt mismatch")
	}
	if sn.Stats().DemandDecryptedBytes != 4*mem.PageSize {
		t.Fatal("wrong demand-decrypt volume")
	}
}

func TestLockUnlockRoundTripPreservesEveryByte(t *testing.T) {
	_, k, s := bootTegra(t, Config{})
	p := k.NewProcess("app", true, false)
	const pages = 3
	base, _ := k.MapAnon(p, pages)
	k.Switch(p)
	want := make([]byte, pages*mem.PageSize)
	s.RNG.Read(want)
	if err := s.CPU.Store(base, want); err != nil {
		t.Fatal(err)
	}
	k.Lock()
	_ = k.Unlock(pin)
	k.Switch(p)
	got := make([]byte, len(want))
	if err := s.CPU.Load(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data corrupted by lock/unlock")
	}
}

func TestParkedProcessCannotTouchEncryptedPagesWhileLocked(t *testing.T) {
	_, k, s := bootTegra(t, Config{})
	p := k.NewProcess("twitter", true, false)
	base, _ := k.MapAnon(p, 1)
	fillSecret(t, s, k, p, base, 1)
	k.Lock()
	k.Switch(p)
	if err := s.CPU.Load(base, make([]byte, 16)); err == nil {
		t.Fatal("encrypted page readable while locked without a background session")
	}
}

func TestDMARegionsDecryptedEagerlyOnUnlock(t *testing.T) {
	sn, k, s := bootTegra(t, Config{})
	p := k.NewProcess("maps", true, false)
	vbase, r, err := k.MapDMA(p, 4) // a 16 KB GPU buffer
	if err != nil {
		t.Fatal(err)
	}
	k.Switch(p)
	want := bytes.Repeat([]byte("GPU-SURFACE-DATA"), 4*mem.PageSize/16)
	if err := s.CPU.Store(vbase, want); err != nil {
		t.Fatal(err)
	}
	k.Lock()
	_ = k.Unlock(pin)
	// The device reads the region physically, without faulting, right now.
	s.L2.CleanWays(s.L2.AllWaysMask())
	got := make([]byte, r.Size)
	s.DRAM.Read(r.Base, got)
	if !bytes.Equal(got, want) {
		t.Fatal("DMA region not eagerly decrypted at unlock")
	}
	if sn.Stats().EagerDecryptedBytes != r.Size {
		t.Fatalf("eager bytes = %d", sn.Stats().EagerDecryptedBytes)
	}
}

func TestSharedWithNonSensitiveSkipped(t *testing.T) {
	sn, k, s := bootTegra(t, Config{})
	sens := k.NewProcess("mail", true, false)
	plain := k.NewProcess("keyboard", false, false)
	base, _ := k.MapAnon(sens, 2)
	if err := k.SharePage(sens, base, plain); err != nil {
		t.Fatal(err)
	}
	fillSecret(t, s, k, sens, base, 1)
	k.Lock()
	if sn.Stats().SkippedSharedPages != 1 {
		t.Fatalf("skipped = %d, want 1", sn.Stats().SkippedSharedPages)
	}
	// The shared page is left plaintext (the paper's policy: shared with a
	// non-sensitive app ⇒ assumed non-secret).
	if sens.AS.Lookup(base).Encrypted {
		t.Fatal("shared page was encrypted")
	}
	// The private second page must be encrypted.
	if !sens.AS.Lookup(base + mem.PageSize).Encrypted {
		t.Fatal("private page not encrypted")
	}
}

func TestSharedBetweenSensitiveEncryptedOnce(t *testing.T) {
	sn, k, s := bootTegra(t, Config{})
	a := k.NewProcess("a", true, false)
	b := k.NewProcess("b", true, false)
	base, _ := k.MapAnon(a, 1)
	if err := k.SharePage(a, base, b); err != nil {
		t.Fatal(err)
	}
	fillSecret(t, s, k, a, base, 1)
	k.Lock()
	if sn.Stats().LockEncryptedBytes != mem.PageSize {
		t.Fatalf("shared frame encrypted %d bytes worth — double encryption?",
			sn.Stats().LockEncryptedBytes)
	}
	if !a.AS.Lookup(base).Encrypted || !b.AS.Lookup(base).Encrypted {
		t.Fatal("both mappings must be marked encrypted")
	}
	// Unlock and read via b: must decrypt correctly and update a's view.
	_ = k.Unlock(pin)
	k.Switch(b)
	got := make([]byte, 16)
	if err := s.CPU.Load(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("TOP-SECRET-EMAIL")) {
		t.Fatal("shared page decrypt failed")
	}
	if a.AS.Lookup(base).Encrypted {
		t.Fatal("sharer's PTE still marked encrypted")
	}
}

func TestFreedPagesZeroedBeforeLock(t *testing.T) {
	_, k, s := bootTegra(t, Config{})
	p := k.NewProcess("app", true, false)
	base, _ := k.MapAnon(p, 2)
	frame := p.AS.Lookup(base).Phys
	fillSecret(t, s, k, p, base, 1)
	s.L2.CleanWays(s.L2.AllWaysMask())
	k.UnmapAndFree(p, base)
	k.Lock()
	// The freed frame must have been zeroed by the pre-lock drain.
	buf := make([]byte, mem.PageSize)
	s.DRAM.Read(frame, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("freed page not zeroed before lock")
		}
	}
	if k.PendingZeroBytes() != 0 {
		t.Fatal("zero queue not drained at lock")
	}
}

func TestVolatileKeyLivesInIRAMOnly(t *testing.T) {
	sn, _, s := bootTegra(t, Config{})
	key := sn.Keys().VolatileKey()
	if len(key) != VolatileKeySize {
		t.Fatal("key size wrong")
	}
	addr := sn.Keys().VolatileKeyAddr()
	if addr < soc.IRAMBase || addr >= soc.DRAMBase {
		t.Fatal("volatile key not in iRAM")
	}
	// DMA cannot read it (TrustZone shield on Tegra).
	if _, err := s.DMA.ReadFromMem(addr, VolatileKeySize); err == nil {
		t.Fatal("DMA read the volatile key")
	}
	// And DRAM must not contain it anywhere it was put by us.
	s.L2.CleanWays(s.L2.AllWaysMask())
	touched := s.DRAM.Store().TouchedPages()
	buf := make([]byte, mem.PageSize)
	for _, off := range touched {
		s.DRAM.Store().Read(off, buf)
		if bytes.Contains(buf, key) {
			t.Fatal("volatile key found in DRAM")
		}
	}
}

func TestPersistentKeyDerivation(t *testing.T) {
	sn, _, _ := bootTegra(t, Config{})
	k1, err := sn.Keys().DerivePersistentKey("hunter2")
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := sn.Keys().DerivePersistentKey("hunter2")
	if !bytes.Equal(k1, k2) {
		t.Fatal("KDF not deterministic")
	}
	k3, _ := sn.Keys().DerivePersistentKey("hunter3")
	if bytes.Equal(k1, k3) {
		t.Fatal("different passwords produced the same key")
	}
	// A different device (different fuse) derives a different key.
	s2 := soc.Tegra3(2)
	k2nd := kernel.New(s2, pin)
	sn2, _ := New(k2nd, Config{})
	other, _ := sn2.Keys().DerivePersistentKey("hunter2")
	if bytes.Equal(k1, other) {
		t.Fatal("two devices derived the same persistent key")
	}
}

func TestPersistentKeyRequiresSecureWorld(t *testing.T) {
	sn, _, _ := bootNexus(t)
	if _, err := sn.Keys().DerivePersistentKey("pw"); err == nil {
		t.Fatal("locked-firmware device derived a persistent key")
	}
}

func TestNexusConfigurationWorks(t *testing.T) {
	// The Nexus prototype: iRAM engine, no cache locking, no background.
	sn, k, s := bootNexus(t)
	if sn.Locker() != nil {
		t.Fatal("Nexus must not have a way locker")
	}
	p := k.NewProcess("contacts", true, false)
	base, _ := k.MapAnon(p, 2)
	secret := fillSecret(t, s, k, p, base, 2)
	k.Lock()
	s.L2.CleanWays(s.L2.AllWaysMask())
	if dramHolds(s, p, secret[:16]) {
		t.Fatal("plaintext in DRAM after lock on Nexus")
	}
	_ = k.Unlock(pin)
	k.Switch(p)
	got := make([]byte, len(secret))
	if err := s.CPU.Load(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("round trip failed on Nexus")
	}
}

func TestLockedWayEngineConfig(t *testing.T) {
	sn, k, s := bootTegra(t, Config{EngineInLockedWay: true})
	if sn.Locker().LockedMask() == 0 {
		t.Fatal("engine-in-locked-way did not lock a way")
	}
	p := k.NewProcess("app", true, false)
	base, _ := k.MapAnon(p, 1)
	want := fillSecret(t, s, k, p, base, 1)
	k.Lock()
	_ = k.Unlock(pin)
	k.Switch(p)
	got := make([]byte, len(want))
	if err := s.CPU.Load(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("locked-way engine round trip failed")
	}
	// Nexus cannot use this config.
	s2 := soc.Nexus4(1)
	if _, err := New(kernel.New(s2, pin), Config{EngineInLockedWay: true}); err == nil {
		t.Fatal("Nexus accepted a locked-way engine")
	}
}

func TestEpochChangesCiphertextAcrossLocks(t *testing.T) {
	_, k, s := bootTegra(t, Config{})
	p := k.NewProcess("app", true, false)
	base, _ := k.MapAnon(p, 1)
	fillSecret(t, s, k, p, base, 1)
	frame := p.AS.Lookup(base).Phys

	k.Lock()
	s.L2.CleanWays(s.L2.AllWaysMask())
	ct1 := make([]byte, mem.PageSize)
	s.DRAM.Read(frame, ct1)
	_ = k.Unlock(pin)
	k.Switch(p)
	_ = s.CPU.Load(base, make([]byte, 1)) // decrypt

	k.Lock()
	s.L2.CleanWays(s.L2.AllWaysMask())
	ct2 := make([]byte, mem.PageSize)
	s.DRAM.Read(frame, ct2)
	if bytes.Equal(ct1, ct2) {
		t.Fatal("same ciphertext across lock epochs: IVs reused")
	}
}

func TestRegisterOnSoCWinsCryptoAPI(t *testing.T) {
	sn, k, s := bootTegra(t, Config{})
	generic, err := NewGenericProvider(s, soc.DRAMBase+0x100000, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	k.Crypto.Register(generic)
	sn.RegisterOnSoC()
	best, err := k.Crypto.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Name() != "aes-onsoc" {
		t.Fatalf("best provider = %s", best.Name())
	}
}

func TestAccelProviderOnlyOnNexus(t *testing.T) {
	sTegra := soc.Tegra3(1)
	if _, err := NewAccelProvider(sTegra, make([]byte, 16)); err == nil {
		t.Fatal("Tegra accepted an accel provider")
	}
	sNexus := soc.Nexus4(1)
	p, err := NewAccelProvider(sNexus, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	c0 := sNexus.Clock.Cycles()
	if err := p.EncryptCBC(dst, src, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if sNexus.Clock.Cycles() == c0 {
		t.Fatal("accelerator charged no time")
	}
	back := make([]byte, 4096)
	if err := p.DecryptCBC(back, dst, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, src) {
		t.Fatal("accel round trip failed")
	}
	if p.Name() == "" || p.Priority() == 0 {
		t.Fatal("provider metadata missing")
	}
}

func TestUntouchedPageSurvivesMultipleLockEpochs(t *testing.T) {
	// Regression: a page that stays encrypted across several lock/unlock
	// cycles must decrypt with the IV of the epoch that sealed it.
	_, k, s := bootTegra(t, Config{})
	p := k.NewProcess("app", true, false)
	base, _ := k.MapAnon(p, 2)
	secret := fillSecret(t, s, k, p, base, 2)

	k.Lock() // epoch 1: both pages sealed
	_ = k.Unlock(pin)
	// Touch only page 0; page 1 keeps epoch-1 ciphertext.
	k.Switch(p)
	_ = s.CPU.Load(base, make([]byte, 16))
	k.Lock() // epoch 2: page 0 re-sealed, page 1 skipped
	_ = k.Unlock(pin)
	k.Switch(p)
	got := make([]byte, 2*mem.PageSize)
	if err := s.CPU.Load(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("stale-epoch page corrupted on decrypt")
	}
}

func TestFreedPageZeroingDropsStaleCacheLines(t *testing.T) {
	// Regression: the zeroing thread clears the DRAM frame, but plaintext
	// may still sit in dirty cache lines; a later (legal) clean must not
	// resurrect it.
	_, k, s := bootTegra(t, Config{})
	p := k.NewProcess("app", true, false)
	base, _ := k.MapAnon(p, 1)
	frame := p.AS.Lookup(base).Phys
	fillSecret(t, s, k, p, base, 1) // plaintext now dirty in L2
	k.UnmapAndFree(p, base)
	k.DrainZeroQueue()
	s.L2.CleanWays(s.L2.AllWaysMask()) // buggy-free write-back opportunity
	buf := make([]byte, mem.PageSize)
	s.DRAM.Read(frame, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("stale cache line resurrected freed-page plaintext")
		}
	}
}

func TestKernelSubsystemProtection(t *testing.T) {
	// The paper's title covers "applications and OS components": a kernel
	// keyring region registered as sensitive is sealed at lock and eagerly
	// restored at unlock (kernel code cannot take young-bit faults).
	sn, k, s := bootTegra(t, Config{})
	frames, err := k.Pages().AllocContig(2)
	if err != nil {
		t.Fatal(err)
	}
	keyring := bytes.Repeat([]byte("KERNEL-KEYRING!!"), mem.PageSize/16)
	s.CPU.WritePhys(frames, keyring)
	k.RegisterSensitiveKernelRange("keyring", kernel.Range{Base: frames, Size: 2 * mem.PageSize})

	k.Lock()
	s.L2.CleanWays(sn.flushMask())
	buf := make([]byte, mem.PageSize)
	s.DRAM.Read(frames, buf)
	if bytes.Contains(buf, []byte("KERNEL-KEYRING!!")) {
		t.Fatal("kernel subsystem plaintext in DRAM while locked")
	}
	if err := k.Unlock(pin); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, mem.PageSize)
	s.CPU.ReadPhys(frames, got)
	if !bytes.Equal(got, keyring) {
		t.Fatal("kernel subsystem not restored at unlock")
	}
	// Survives repeated cycles.
	k.Lock()
	_ = k.Unlock(pin)
	s.CPU.ReadPhys(frames, got)
	if !bytes.Equal(got, keyring) {
		t.Fatal("kernel subsystem corrupted on second cycle")
	}
}

func TestSuspendWhileLockedKeepsSecretsSafe(t *testing.T) {
	// §7 "Secure On Suspend": the common path is lock → suspend → wake on
	// event → background work → user unlock. Sentry's masked flush hook
	// must keep locked ways intact across the suspend.
	sn, k, s := bootTegra(t, Config{})
	p := k.NewProcess("mail", true, true)
	base, _ := k.MapAnon(p, 4)
	secret := fillSecret(t, s, k, p, base, 4)
	k.Lock()
	k.Suspend()
	k.Wake(kernel.WakeIncomingCall)
	if err := sn.BeginBackground(p, 128); err != nil {
		t.Fatal(err)
	}
	k.Switch(p)
	got := make([]byte, 32)
	if err := s.CPU.Load(base, got); err != nil {
		t.Fatal(err)
	}
	// Suspend again mid-session: the kernel flush must skip locked ways.
	k.Suspend()
	k.Wake(kernel.WakeTimer)
	if err := s.CPU.Load(base+mem.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret[mem.PageSize:mem.PageSize+32]) {
		t.Fatal("suspend destroyed locked-way state")
	}
	_ = k.Unlock(pin)
	k.Switch(p)
	full := make([]byte, len(secret))
	if err := s.CPU.Load(base, full); err != nil || !bytes.Equal(full, secret) {
		t.Fatal("data lost across suspend cycles")
	}
}

// TestRekeyBeforeSealOnly: a fresh boot can swap the volatile root key (the
// fleet stamps per-device keys onto forked base images this way) and the
// engine follows — pages sealed after the rekey decrypt correctly. Once
// anything is sealed under a key, rekeying is refused: those pages would be
// garbage under the new schedule.
func TestRekeyBeforeSealOnly(t *testing.T) {
	sn, k, s := bootTegra(t, Config{})
	newKey := bytes.Repeat([]byte{0xA5, 0x3C}, VolatileKeySize/2)
	if err := sn.Rekey(newKey); err != nil {
		t.Fatalf("rekey on a fresh boot: %v", err)
	}
	if got := sn.Keys().VolatileKey(); !bytes.Equal(got, newKey) {
		t.Fatalf("volatile key after rekey = %x, want %x", got, newKey)
	}
	if err := sn.Rekey(newKey[:5]); err == nil {
		t.Fatal("rekey accepted a short key")
	}

	// Full seal/unseal round trip under the new key.
	p := k.NewProcess("mail", true, false)
	base, _ := k.MapAnon(p, 2)
	secret := fillSecret(t, s, k, p, base, 2)
	k.Lock()
	if dramHolds(s, p, []byte("TOP-SECRET-EMAIL")) {
		t.Fatal("plaintext in DRAM after lock under rekeyed root")
	}
	if err := sn.Rekey(newKey); err == nil {
		t.Fatal("rekey succeeded with sealed pages outstanding")
	}
	if err := k.Unlock(pin); err != nil {
		t.Fatal(err)
	}
	k.Switch(p)
	got := make([]byte, len(secret))
	if err := s.CPU.Load(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("secret corrupted across a seal cycle under the rekeyed root")
	}
}
