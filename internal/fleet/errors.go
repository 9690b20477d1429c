package fleet

import (
	"context"
	"errors"

	"sentry/internal/aes"
	"sentry/internal/kernel"
	"sentry/internal/onsoc"
)

// Typed sentinel errors for the fleet layer, errors.Is-testable through
// every wrap the retry and actor machinery adds.
var (
	// ErrShed: the request was dropped to relieve a saturated mailbox.
	ErrShed = errors.New("fleet: request shed under load")
	// ErrCircuitOpen: the device's circuit breaker is rejecting requests.
	ErrCircuitOpen = errors.New("fleet: circuit open")
	// ErrQuarantined: the device exhausted its restart budget and was
	// taken out of service; only a fleet restart brings it back.
	ErrQuarantined = errors.New("fleet: device quarantined")
	// ErrDeviceRestarted: a fault unwound the device mid-request and it
	// was rebooted through the cold-boot path; the request did not
	// complete (or completed partially and was rolled over by the boot).
	ErrDeviceRestarted = errors.New("fleet: device restarted mid-request")
	// ErrShutdown: the fleet is stopping and no longer accepts requests.
	ErrShutdown = errors.New("fleet: fleet shut down")
	// ErrUnknownDevice: no device with that id is hosted here.
	ErrUnknownDevice = errors.New("fleet: unknown device")
	// ErrOverload: admission control rejected the request at the front door
	// — the fleet is at its configured inflight limit. Retryable from the
	// caller's side (after easing off), but Do itself never retries it:
	// shedding fast under overload is the point.
	ErrOverload = errors.New("fleet: overloaded")
)

// errSlotMoved is the internal signal that a live reshard re-homed a slot
// between resolution and acquisition; Do re-resolves and retries without
// charging an attempt. It never escapes the fleet package.
var errSlotMoved = errors.New("fleet: slot re-homed by reshard")

// Transient classifies an error as worth retrying: the failure is a state
// the device can leave on its own (locked screen, open breaker, a reboot in
// progress, momentary memory pressure). Everything else — wrong PIN,
// quarantine, shutdown, exhausted deadlines, and any error the classifier
// does not recognise — is permanent: retrying what we don't understand only
// amplifies load.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, kernel.ErrBadPIN),
		errors.Is(err, ErrQuarantined),
		errors.Is(err, ErrShutdown),
		errors.Is(err, ErrUnknownDevice),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, kernel.ErrLocked),
		errors.Is(err, ErrShed),
		errors.Is(err, ErrOverload),
		errors.Is(err, ErrCircuitOpen),
		errors.Is(err, ErrDeviceRestarted),
		errors.Is(err, onsoc.ErrIRAMExhausted),
		errors.Is(err, kernel.ErrNoMemory):
		return true
	}
	// A countermeasure-detected computation fault is fail-safe by design:
	// the ciphertext was withheld and the engine rekeys, so the right move
	// is to retry the request — never to count it as a confidentiality
	// violation or quarantine the device.
	var fd *aes.FaultDetectedError
	if errors.As(err, &fd) {
		return true
	}
	return false
}
