package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sentry/internal/kernel"
)

// newHTTPFixture serves f over httptest and returns a Client speaking to it.
func newHTTPFixture(t *testing.T, f *Fleet) *HTTPClient {
	t.Helper()
	srv := httptest.NewServer(NewHandler(f))
	t.Cleanup(srv.Close)
	c := NewHTTPClient(srv.URL, srv.Client())
	t.Cleanup(func() { c.Close() })
	return c
}

// The HTTP transport is behaviourally identical to the in-process Fleet:
// same results, same ledger, same health — through the same Client interface.
func TestHTTPRoundTrip(t *testing.T) {
	f := Open(4, WithSeed(7))
	defer f.Stop()
	c := newHTTPFixture(t, f)
	ctx := context.Background()

	res, err := c.Do(ctx, 2, Op{Code: OpTouch, Arg: 9})
	if err != nil {
		t.Fatalf("remote touch: %v", err)
	}
	if res.OpID == 0 || res.Seq != 1 || res.Attempts != 1 {
		t.Fatalf("remote result = %+v, want op ID, seq 1, 1 attempt", res)
	}
	// A touch arg at or above 2^63 wraps onto a page (page 3 here) instead
	// of faulting on a negative page index.
	if _, err := c.Do(ctx, 2, Op{Code: OpTouch, Arg: 1<<63 + 3}); err != nil {
		t.Fatalf("remote touch with arg 2^63+3: %v", err)
	}
	if _, err := c.Do(ctx, 2, Op{Code: OpDiskWrite, Arg: 3}); err != nil {
		t.Fatalf("remote disk write: %v", err)
	}

	// A batch executes in order on the same device.
	outs, err := c.DoBatch(ctx, 2, []Op{
		{Code: OpDiskRead, Arg: 3},
		{Code: OpLock, Prio: PrioHigh},
		{Code: OpPing},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(outs) != 3 {
		t.Fatalf("batch returned %d results", len(outs))
	}
	for i, o := range outs {
		if o.Code != CodeOK {
			t.Fatalf("batch op %d code %q: %s", i, o.Code, o.Error)
		}
	}
	if outs[2].State != "screen-locked" {
		t.Fatalf("ping after lock reports state %q, want screen-locked", outs[2].State)
	}

	// The remote ledger is the in-process ledger, byte for byte.
	remote, err := c.Ledger(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	local, err := f.Ledger(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote, local) {
		t.Fatalf("ledger mismatch:\nremote: %+v\nlocal:  %+v", remote, local)
	}

	// Health agrees on both transports.
	rh, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lh, _ := f.Health(ctx)
	if rh != lh {
		t.Fatalf("health mismatch: remote %+v local %+v", rh, lh)
	}
	dh, err := c.DeviceHealth(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dh.ID != 2 || !dh.Touched || dh.Boots != 1 {
		t.Fatalf("remote device health = %+v", dh)
	}
}

// Typed errors survive the wire: errors.Is works identically against the
// HTTP client, for request-level statuses and per-op outcomes alike.
func TestHTTPTypedErrors(t *testing.T) {
	f := Open(2, WithSeed(7))
	defer f.Stop()
	c := newHTTPFixture(t, f)
	ctx := context.Background()

	// Unknown device → 404 → ErrUnknownDevice.
	if _, err := c.Do(ctx, 99, Op{Code: OpPing}); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("remote unknown device = %v, want ErrUnknownDevice", err)
	}
	// Domain error (wrong PIN on a locked device) rides per-op and maps back
	// to the kernel sentinel.
	if _, err := c.Do(ctx, 0, Op{Code: OpLock, Prio: PrioHigh}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctx, 0, Op{Code: OpBadPIN, Prio: PrioHigh}); !errors.Is(err, kernel.ErrBadPIN) {
		t.Fatalf("remote bad PIN = %v, want kernel.ErrBadPIN", err)
	}
}

// Overload aborts the batch with 429 and comes back as a retryable typed
// ErrOverload.
func TestHTTPOverload(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	f := newFleet(Options{
		Devices: 2, Seed: 7, MaxInflight: 1, Backoff: &instantBackoff,
		testExec: func(a *actor, op Op) (bool, Result, error) {
			if op.Code == OpRebootDrill {
				started <- struct{}{}
				<-block
			}
			return true, Result{State: "ok"}, nil
		},
	})
	defer f.Stop()
	c := newHTTPFixture(t, f)

	go f.Do(context.Background(), 0, Op{Code: OpRebootDrill})
	<-started
	defer close(block)

	_, err := c.Do(context.Background(), 1, Op{Code: OpPing})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("remote over the inflight limit = %v, want ErrOverload", err)
	}
	if !Transient(err) {
		t.Fatal("remote ErrOverload lost its transience")
	}
}

// Malformed requests are rejected with 400s, not executed.
func TestHTTPValidation(t *testing.T) {
	f := Open(1, WithSeed(7))
	defer f.Stop()
	srv := httptest.NewServer(NewHandler(f))
	defer srv.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var we WireError
		if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Code == "" {
			t.Errorf("%s: status %d without a WireError body (%v)", path, resp.StatusCode, err)
		}
		return resp.StatusCode
	}
	if s := post("/v1/devices/0/ops", `{"ops":[]}`); s != http.StatusBadRequest {
		t.Errorf("empty batch → %d, want 400", s)
	}
	if s := post("/v1/devices/0/ops", `not json`); s != http.StatusBadRequest {
		t.Errorf("bad json → %d, want 400", s)
	}
	if s := post("/v1/devices/0/ops", `{"ops":[{"code":"warp-core-breach"}]}`); s != http.StatusBadRequest {
		t.Errorf("unknown op → %d, want 400", s)
	}
	if s := post("/v1/devices/not-a-number/ops", `{"ops":[{"code":"ping"}]}`); s != http.StatusBadRequest {
		t.Errorf("bad device id → %d, want 400", s)
	}
	// A body past the byte bound is cut off mid-decode, even though the ops
	// it opens with are valid and few.
	oversized := `{"ops":[{"code":"ping"}]` + strings.Repeat(" ", maxBatchBytes) + `}`
	if s := post("/v1/devices/0/ops", oversized); s != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body → %d, want 413", s)
	}
	// Nothing above reached a device.
	if n := f.Metrics().CounterValue(MetricExecs); n != 0 {
		t.Fatalf("validation failures executed %d ops", n)
	}
	if n := f.Metrics().CounterValue(MetricOpsOK) + f.Metrics().CounterValue(MetricOpsFailed); n != 0 {
		t.Fatalf("validation failures reached Fleet.Do %d times", n)
	}
}

// Every OpCode name round-trips through OpCodeByName — the wire alphabet
// covers the whole op set.
func TestOpCodeNamesRoundTrip(t *testing.T) {
	for code := OpPing; code <= OpRebootDrill; code++ {
		back, ok := OpCodeByName(code.String())
		if !ok || back != code {
			t.Errorf("op %v does not round-trip its name %q", code, code.String())
		}
	}
	if _, ok := OpCodeByName("nonsense"); ok {
		t.Error("OpCodeByName accepted nonsense")
	}
}
