package mem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func fillPattern(s *Store, off uint64, n int, seed byte) {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = seed + byte(i)
	}
	s.Write(off, buf)
}

func readBack(s *Store, off uint64, n int) []byte {
	buf := make([]byte, n)
	s.Read(off, buf)
	return buf
}

// TestStoreForkIsolation: a fork sees the sealed bytes; writes on either
// side never leak into the other or into sibling forks.
func TestStoreForkIsolation(t *testing.T) {
	s := NewStore(1 << 20)
	fillPattern(s, 0, 3*PageSize, 1)

	f1 := s.Fork()
	f2 := s.Fork()
	want := readBack(s, 0, 3*PageSize)

	// Mutate the parent straddling a page boundary: forks must not see it.
	s.Write(PageSize-8, bytes.Repeat([]byte{0xAA}, 16))
	if !bytes.Equal(readBack(f1, 0, 3*PageSize), want) {
		t.Fatal("parent write leaked into fork f1")
	}

	// Mutate one fork: the sibling and the parent's sealed base stay put.
	f1.Write(2*PageSize, bytes.Repeat([]byte{0xBB}, 32))
	if !bytes.Equal(readBack(f2, 0, 3*PageSize), want) {
		t.Fatal("fork write leaked into sibling fork")
	}
	if got := readBack(s, 2*PageSize, 32); bytes.Equal(got, bytes.Repeat([]byte{0xBB}, 32)) {
		t.Fatal("fork write leaked into parent")
	}

	// Byte-granular paths too (the cacheRW short-circuit).
	f2.SetByte(5, 0x77)
	if s.ByteAt(5) == 0x77 || f1.ByteAt(5) == 0x77 {
		t.Fatal("SetByte on fork leaked")
	}
	if f2.ByteAt(5) != 0x77 {
		t.Fatal("SetByte on fork not visible to the fork itself")
	}
}

// TestStoreRepeatedSeal: sealing a live store again must not disturb forks
// taken from earlier seals (the ddmin prefix-checkpoint pattern).
func TestStoreRepeatedSeal(t *testing.T) {
	s := NewStore(1 << 20)
	fillPattern(s, 0, PageSize, 1)
	early := s.Fork()
	want := readBack(early, 0, PageSize)

	s.Write(0, []byte{9, 9, 9, 9})
	late := s.Fork() // seals again, merging the new write
	if !bytes.Equal(readBack(early, 0, PageSize), want) {
		t.Fatal("second seal disturbed an earlier fork")
	}
	if late.ByteAt(0) != 9 {
		t.Fatal("later fork missed the re-sealed write")
	}
}

// TestStoreConcurrentForks hammers Fork on a sealed store from many
// goroutines under the race detector: once sealed with no private pages,
// Fork is a pure read of the store, and every fork must independently hold
// the sealed bytes while its own writes stay private.
func TestStoreConcurrentForks(t *testing.T) {
	const span = 16 * PageSize
	s := NewStore(span)
	fillPattern(s, 0, span, 0x5A)
	s.Seal()
	want := readBack(s, 0, span)

	const forkers = 8
	var wg sync.WaitGroup
	errs := make([]error, forkers)
	for g := 0; g < forkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				f := s.Fork()
				if !bytes.Equal(readBack(f, 0, span), want) {
					errs[g] = fmt.Errorf("fork %d/%d does not hold the sealed bytes", g, i)
					return
				}
				fillPattern(f, 0, span, byte(g)) // private writes must not race
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(readBack(s, 0, span), want) {
		t.Fatal("fork writes leaked into the sealed store")
	}
}

// TestStoreForkTouchedPages is the regression test for the COW accounting
// fix: TouchedPages and MutatePages must include pages inherited from the
// frozen base, deduplicated against private shadows and in ascending order,
// or a forked world's remanence post-mortem would under-scan.
func TestStoreForkTouchedPages(t *testing.T) {
	s := NewStore(1 << 20)
	s.SetByte(0*PageSize, 1)
	s.SetByte(3*PageSize, 1)
	s.SetByte(7*PageSize, 1)
	f := s.Fork()

	want := []uint64{0, 3 * PageSize, 7 * PageSize}
	got := f.TouchedPages()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fork TouchedPages = %v, want %v (base pages missing?)", got, want)
	}

	// Shadow one base page and dirty a new one: still deduped and sorted.
	f.SetByte(3*PageSize+1, 2)
	f.SetByte(5*PageSize, 2)
	want = []uint64{0, 3 * PageSize, 5 * PageSize, 7 * PageSize}
	if got := f.TouchedPages(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fork TouchedPages after writes = %v, want %v", got, want)
	}

	// MutatePages must visit the same set, hand out writable views, and
	// keep mutations private to the fork.
	var visited []uint64
	f.MutatePages(func(base uint64, data []byte) {
		visited = append(visited, base)
		data[0] ^= 0xFF
	})
	if fmt.Sprint(visited) != fmt.Sprint(want) {
		t.Fatalf("fork MutatePages visited %v, want %v", visited, want)
	}
	if s.ByteAt(7*PageSize) != 1 {
		t.Fatal("MutatePages on fork leaked into parent base page")
	}
	if f.ByteAt(7*PageSize) != 1^0xFF {
		t.Fatal("MutatePages mutation not applied to fork")
	}
}

// TestStoreZeroAllDropsBase: ZeroAll on a fork must forget inherited pages.
func TestStoreZeroAllDropsBase(t *testing.T) {
	s := NewStore(1 << 20)
	fillPattern(s, 0, PageSize, 3)
	f := s.Fork()
	f.ZeroAll()
	if f.ByteAt(0) != 0 || len(f.TouchedPages()) != 0 {
		t.Fatal("ZeroAll left COW base pages visible")
	}
	if s.ByteAt(0) != 3 {
		t.Fatal("ZeroAll on fork damaged parent")
	}
}

// Microbenchmarks for the COW hot paths (make bench): reads and writes
// through a flat store vs a fork reading frozen base pages vs a fork
// materialising them, plus the Fork operation itself.

const benchSpan = 64 * PageSize

func benchStore(freshFork bool) *Store {
	s := NewStore(1 << 24)
	fillPattern(s, 0, benchSpan, 7)
	if freshFork {
		return s.Fork()
	}
	return s
}

func BenchmarkStoreFlatRead(b *testing.B) {
	s := benchStore(false)
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(uint64(i*64)%benchSpan, buf)
	}
}

func BenchmarkStoreCOWRead(b *testing.B) {
	s := benchStore(true)
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(uint64(i*64)%benchSpan, buf)
	}
}

func BenchmarkStoreFlatWrite(b *testing.B) {
	s := benchStore(false)
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(uint64(i*64)%benchSpan, buf)
	}
}

func BenchmarkStoreCOWWrite(b *testing.B) {
	s := benchStore(true)
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(uint64(i*64)%benchSpan, buf)
	}
}

func BenchmarkStoreFork(b *testing.B) {
	s := benchStore(false)
	s.Seal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := s.Fork()
		f.SetByte(0, byte(i)) // dirty one page: the realistic fork cost
	}
}
