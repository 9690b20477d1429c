package fleet

import (
	"context"
	"errors"
	"fmt"

	"sentry/internal/aes"
	"sentry/internal/kernel"
	"sentry/internal/onsoc"
)

// DeviceID names one logical device in the fleet's 64-bit ID space.
// Placement hashes the ID onto a shard; nothing requires IDs to be dense,
// and an untouched ID costs nothing until its first op.
type DeviceID uint64

// Client is the typed front door of the fleet, implemented by the
// in-process *Fleet and by HTTPClient. Soak harnesses and load generators
// are written against this interface only, so the same workload drives
// either transport unchanged.
type Client interface {
	// Do executes op against device id through the robustness stack
	// (deadline, retries, breaker, admission) and returns the typed result.
	// The Result's OpID is valid even when err is non-nil.
	Do(ctx context.Context, id DeviceID, op Op) (Result, error)
	// Health returns the fleet-level probe summary.
	Health(ctx context.Context) (FleetHealth, error)
	// Ledger returns a copy of device id's sequence ledger (nil for a
	// device that never executed a ledgered op). Meaningful once the device
	// is idle — ordinarily after the workload has drained.
	Ledger(ctx context.Context, id DeviceID) ([]LedgerEntry, error)
	// Close releases the client. For *Fleet it stops the fleet; for remote
	// clients it closes the transport.
	Close() error
}

// Result is the typed outcome of one Do. OpID and Attempts are always set;
// the payload fields are per-OpCode (State for OpPing, Session for
// OpBgBegin/OpBgPinned, Rebooted for OpRebootDrill, Seq for every
// successful ledgered op).
type Result struct {
	OpID     uint64 `json:"op_id"`
	Attempts int    `json:"attempts"`
	// Restarts is the device's fault-restart count observed after the op —
	// a caller can watch a device burn through its budget.
	Restarts int64  `json:"restarts,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
	State    string `json:"state,omitempty"`
	Session  string `json:"session,omitempty"`
	Rebooted bool   `json:"rebooted,omitempty"`
}

// FleetHealth is the fleet-level probe view: population counts rather than
// a per-device dump (at 10^5+ logical devices a per-device list is not a
// health probe, it is a bulk export — use DeviceHealth for one device).
type FleetHealth struct {
	Ready       bool   `json:"ready"`
	Logical     uint64 `json:"logical"`  // configured device population
	Touched     int    `json:"touched"`  // devices that have ever executed
	Resident    int    `json:"resident"` // live actors (hydrated, serving)
	Quarantined int    `json:"quarantined"`
	Stalled     int    `json:"stalled"`
	Shards      int    `json:"shards"`
}

// Error codes for the HTTP boundary: every typed error the fleet can
// return maps to a stable string code, and the HTTP client maps codes back
// to the same sentinels — errors.Is works identically on both transports.
const (
	CodeOK            = "ok"
	CodeBadPIN        = "bad_pin"
	CodeLocked        = "locked"
	CodeQuarantined   = "quarantined"
	CodeRestarted     = "restarted"
	CodeShed          = "shed"
	CodeOverload      = "overload"
	CodeCircuitOpen   = "circuit_open"
	CodeDeadline      = "deadline"
	CodeCanceled      = "canceled"
	CodeShutdown      = "shutdown"
	CodeUnknownDevice = "unknown_device"
	// CodeFaultDetected: a cipher countermeasure caught a computation fault
	// and withheld the ciphertext (aes.FaultDetectedError). Transient — the
	// device rekeys and the request is safe to retry.
	CodeFaultDetected = "fault_detected"
	// CodeIRAMExhausted and CodeNoMemory: momentary memory pressure on the
	// device (onsoc.ErrIRAMExhausted, kernel.ErrNoMemory). Transient.
	CodeIRAMExhausted = "iram_exhausted"
	CodeNoMemory      = "no_memory"
	CodeOther         = "other"
)

// codeSentinels pairs every sentinel-backed wire code with its sentinel,
// most specific first: ErrorCode picks the first entry an error wraps, and
// ErrorForCode wraps the entry's sentinel.
var codeSentinels = []struct {
	code string
	err  error
}{
	{CodeBadPIN, kernel.ErrBadPIN},
	{CodeQuarantined, ErrQuarantined},
	{CodeRestarted, ErrDeviceRestarted},
	{CodeShed, ErrShed},
	{CodeOverload, ErrOverload},
	{CodeCircuitOpen, ErrCircuitOpen},
	{CodeLocked, kernel.ErrLocked},
	{CodeDeadline, context.DeadlineExceeded},
	{CodeCanceled, context.Canceled},
	{CodeShutdown, ErrShutdown},
	{CodeUnknownDevice, ErrUnknownDevice},
	{CodeIRAMExhausted, onsoc.ErrIRAMExhausted},
	{CodeNoMemory, kernel.ErrNoMemory},
}

// ErrorCode buckets an error into its wire code, most specific first.
// "ok" for nil.
func ErrorCode(err error) string {
	if err == nil {
		return CodeOK
	}
	for _, cs := range codeSentinels {
		if errors.Is(err, cs.err) {
			return cs.code
		}
	}
	var fd *aes.FaultDetectedError
	if errors.As(err, &fd) {
		return CodeFaultDetected
	}
	return CodeOther
}

// ErrorForCode reconstructs a typed error from its wire code and message:
// the returned error wraps the sentinel ErrorCode would bucket it into, so
// a remote failure satisfies the same errors.Is checks as a local one.
// Returns nil for CodeOK or an empty code.
func ErrorForCode(code, msg string) error {
	if code == "" || code == CodeOK {
		return nil
	}
	var sentinel error
	if code == CodeFaultDetected {
		// Reconstruct a typed fault-detection error (the countermeasure and
		// block index stay in the message): errors.As matches it, so the
		// classifier sees it as transient on both transports.
		sentinel = &aes.FaultDetectedError{}
	}
	for _, cs := range codeSentinels {
		if cs.code == code {
			sentinel = cs.err
			break
		}
	}
	if sentinel == nil {
		return fmt.Errorf("fleet: remote error (%s): %s", code, msg)
	}
	if msg == "" {
		msg = code
	}
	return fmt.Errorf("fleet: remote: %s: %w", msg, sentinel)
}
