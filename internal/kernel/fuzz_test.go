package kernel

import (
	"errors"
	"testing"

	"sentry/internal/soc"
)

// FuzzUnlockPIN drives the lock/unlock state machine with arbitrary PIN
// strings and op sequences, checking it against an independent model: the
// real kernel must agree with the model on lock state and failure count
// after every step, never panic, and never leave DeepLocked short of a
// power cycle.
func FuzzUnlockPIN(f *testing.F) {
	f.Add([]byte{0, 1})                              // lock, correct unlock
	f.Add([]byte{0, 2, 2, 2, 2, 2, 1})               // five failures -> deep lock
	f.Add([]byte{0, 3, 4, 'x', 0, 1})                // arbitrary pin then re-lock
	f.Add([]byte{5, 0, 5, 5})                        // empty pins
	f.Add([]byte{0, 3, 4, '4', '3', '2', '1', 0, 2}) // correct pin via arbitrary bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		const pin = "4321"
		s := soc.Tegra3(1)
		k := New(s, pin)

		// The independent model.
		state := Unlocked
		failures := 0
		modelUnlock := func(attempt string) {
			switch state {
			case Unlocked, DeepLocked:
				return
			}
			if attempt == pin {
				state = Unlocked
				failures = 0
				return
			}
			failures++
			if failures >= MaxPINAttempts {
				state = DeepLocked
			}
		}

		for i := 0; i < len(data); i++ {
			switch data[i] % 6 {
			case 0:
				k.Lock()
				if state == Unlocked {
					state = ScreenLocked
				}
			case 1:
				err := k.Unlock(pin)
				wasDeep := state == DeepLocked
				modelUnlock(pin)
				if wasDeep {
					if !errors.Is(err, ErrLocked) {
						t.Fatalf("step %d: deep-locked unlock returned %v, want ErrLocked", i, err)
					}
				} else if err != nil {
					t.Fatalf("step %d: correct PIN rejected: %v", i, err)
				}
			case 2:
				err := k.Unlock("9999")
				wasLocked := state == ScreenLocked
				modelUnlock("9999")
				if wasLocked && !errors.Is(err, ErrBadPIN) {
					t.Fatalf("step %d: wrong PIN returned %v, want ErrBadPIN", i, err)
				}
			case 3:
				// Arbitrary attempt string drawn from the input itself.
				if i+1 >= len(data) {
					break
				}
				n := int(data[i+1]) % 8
				end := i + 2 + n
				if end > len(data) {
					end = len(data)
				}
				attempt := string(data[i+2 : end])
				_ = k.Unlock(attempt)
				modelUnlock(attempt)
				i = end - 1
			case 4:
				k.Lock()
				if state == Unlocked {
					state = ScreenLocked
				}
				err := k.Unlock(pin)
				wasDeep := state == DeepLocked
				modelUnlock(pin)
				if !wasDeep && err != nil {
					t.Fatalf("step %d: correct PIN rejected: %v", i, err)
				}
			case 5:
				_ = k.Unlock("")
				modelUnlock("")
			}
			if k.State() != state {
				t.Fatalf("step %d: kernel state %v, model %v", i, k.State(), state)
			}
			if k.pinFailures != failures {
				t.Fatalf("step %d: kernel failures %d, model %d", i, k.pinFailures, failures)
			}
		}
	})
}
