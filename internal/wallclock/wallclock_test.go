package wallclock

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestRecordPreservesOtherKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wc.json")
	if err := Record(path, "serial", 1, &Run{Parallelism: 1, TotalSec: 6.5}); err != nil {
		t.Fatal(err)
	}
	if err := Record(path, "serve", 1, &Run{Parallelism: 512, TotalSec: 10, OpsPerSec: 300}); err != nil {
		t.Fatal(err)
	}
	// Re-recording one kind must not clobber the other.
	if err := Record(path, "serial", 1, &Run{Parallelism: 1, TotalSec: 6.0}); err != nil {
		t.Fatal(err)
	}
	serial, err := load(path, "serial")
	if err != nil {
		t.Fatal(err)
	}
	if serial.TotalSec != 6.0 {
		t.Fatalf("serial total = %v, want the re-recorded 6.0", serial.TotalSec)
	}
	serve, err := load(path, "serve")
	if err != nil {
		t.Fatal(err)
	}
	if serve.OpsPerSec != 300 {
		t.Fatalf("serve record lost across serial re-record: %+v", serve)
	}
	if _, err := load(path, "parallel"); err == nil {
		t.Fatal("load of an unrecorded kind succeeded")
	}
}

// guardCase is one guard row driven against a recorded file.
type guardCase struct {
	name    string
	bound   Bound
	run     Run
	wantErr string // "" means the guard passes
}

// recordKinds writes one record per kind to a fresh file and returns its path.
func recordKinds(t *testing.T, runs map[string]*Run) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wc.json")
	for kind, run := range runs {
		if err := Record(path, kind, 1, run); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func checkGuards(t *testing.T, path string, cases []guardCase) {
	t.Helper()
	for _, tc := range cases {
		run := tc.run
		msg, err := Guard(path, tc.bound, &run)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: guard failed: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: guard passed: %s", tc.name, msg)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q, want it to mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestGuardHeadroom drives the ceiling guards — wall clock and parked bytes
// at Headroom — and the explorer's 10x speedup floor on both sides of their
// bounds, plus the two ways a guard cannot be anchored: a missing kind and a
// record without the field.
func TestGuardHeadroom(t *testing.T) {
	path := recordKinds(t, map[string]*Run{
		"check":            {Parallelism: 1, TotalSec: 4},
		"scale":            {Parallelism: 1, TotalSec: 1, BytesPerDevice: 1000},
		"explore-baseline": {TotalSec: 70, OpsPerSec: 500},
	})
	wallBound := Bound{Kind: "check", Field: Total, Limit: Headroom}
	bytesBound := Bound{Kind: "scale", Field: ParkedBytes, Limit: Headroom}
	ratioBound := Bound{Kind: "explore-baseline", Field: Throughput, Floor: true, Limit: 10}
	checkGuards(t, path, []guardCase{
		{"wall clock under ceiling", wallBound, Run{TotalSec: 4.9}, ""},
		{"wall clock over ceiling", wallBound, Run{TotalSec: 5.1}, "regression"},
		{"parked bytes under ceiling", bytesBound, Run{BytesPerDevice: 1249}, ""},
		{"parked bytes over ceiling", bytesBound, Run{BytesPerDevice: 1251}, "regression"},
		{"speedup above 10x floor", ratioBound, Run{OpsPerSec: 5001}, ""},
		{"speedup below 10x floor", ratioBound, Run{OpsPerSec: 4999}, "regression"},
		{"missing kind", Bound{Kind: "missing", Field: Total, Limit: Headroom}, Run{TotalSec: 1}, `no "missing" record`},
		{"record without bytes", Bound{Kind: "check", Field: ParkedBytes, Limit: Headroom},
			Run{BytesPerDevice: 1}, "no parked footprint"},
	})
}

// TestGuardThroughputFloor drives the serving floor at 1/Headroom: throughput
// guards invert the comparison (lower is worse).
func TestGuardThroughputFloor(t *testing.T) {
	path := recordKinds(t, map[string]*Run{
		"serve":  {Parallelism: 512, TotalSec: 10, OpsPerSec: 300},
		"serial": {Parallelism: 1, TotalSec: 6},
	})
	serveBound := Bound{Kind: "serve", Field: Throughput, Floor: true, Limit: 1 / Headroom}
	checkGuards(t, path, []guardCase{
		// The floor is recorded/1.25 = 240.
		{"throughput above floor", serveBound, Run{OpsPerSec: 241}, ""},
		{"throughput below floor", serveBound, Run{OpsPerSec: 239}, "regression"},
		// A record without ops/sec cannot anchor a throughput guard.
		{"record without ops/sec", Bound{Kind: "serial", Field: Throughput, Floor: true, Limit: 1 / Headroom},
			Run{OpsPerSec: 100}, "no ops/sec"},
	})
}
