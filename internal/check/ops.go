package check

import (
	"fmt"
	"strconv"
	"strings"

	"sentry/internal/faults"
	"sentry/internal/sim"
)

// OpCode identifies one operation in the checker's alphabet. The alphabet
// spans the three actors of the paper's setting: the user/OS (lock, unlock,
// suspend, idle, touches, frees), the environment (power cuts, held resets,
// bit flips), and the attacker (DMA scrapes, glitched resets).
type OpCode int

// The operation alphabet.
const (
	OpLock OpCode = iota
	OpUnlock
	OpBadPIN
	OpFgTouch
	OpBgBegin
	OpBgTouch
	OpFreePage
	OpPressure
	OpFlushMasked
	OpSuspend
	OpWake
	OpIdle
	OpDrainZero
	OpDMAScrape
	OpBitFlip
	OpPowerCut
	OpHeldReset
	OpGlitchReset
	OpPrimeProbe
	OpEvictReload
	OpOccupancy
	OpDFAFault
	OpDFACollect
	numOpCodes
)

var opNames = [numOpCodes]string{
	OpLock:        "lock",
	OpUnlock:      "unlock",
	OpBadPIN:      "bad-pin",
	OpFgTouch:     "fg-touch",
	OpBgBegin:     "bg-begin",
	OpBgTouch:     "bg-touch",
	OpFreePage:    "free-page",
	OpPressure:    "pressure",
	OpFlushMasked: "flush-masked",
	OpSuspend:     "suspend",
	OpWake:        "wake",
	OpIdle:        "idle",
	OpDrainZero:   "drain-zero",
	OpDMAScrape:   "dma-scrape",
	OpBitFlip:     "bit-flip",
	OpPowerCut:    "power-cut",
	OpHeldReset:   "held-reset",
	OpGlitchReset: "glitch-reset",
	OpPrimeProbe:  "prime-probe",
	OpEvictReload: "evict-reload",
	OpOccupancy:   "occupancy-probe",
	OpDFAFault:    "dfa-fault",
	OpDFACollect:  "dfa-collect",
}

func (c OpCode) String() string {
	if c >= 0 && c < numOpCodes {
		return opNames[c]
	}
	return fmt.Sprintf("op(%d)", int(c))
}

// terminal reports whether the op kills the device (ends the schedule).
func (c OpCode) terminal() bool {
	return c == OpPowerCut || c == OpHeldReset || c == OpGlitchReset
}

// Terminal reports whether the op kills the device. The explorer uses it to
// give tree branches ending in a kill a subtree budget of exactly one node.
func (c OpCode) Terminal() bool { return c.terminal() }

// Op is one schedule step. Arg carries the operation's parameter (page
// index, wake source, RNG salt, ...) — parameters are fixed at generation
// time, never drawn at apply time, so removing ops during shrinking cannot
// shift the meaning of the ops that remain.
type Op struct {
	Code OpCode
	Arg  uint32
}

func (o Op) String() string {
	if o.Arg == 0 {
		return o.Code.String()
	}
	return fmt.Sprintf("%s:%d", o.Code, o.Arg)
}

// Schedule is an operation sequence.
type Schedule []Op

func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, op := range s {
		parts[i] = op.String()
	}
	return strings.Join(parts, ",")
}

// ParseSchedule parses the String form ("lock,fg-touch:3,power-cut").
func ParseSchedule(text string) (Schedule, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil, nil
	}
	var out Schedule
	for _, tok := range strings.Split(text, ",") {
		name, argStr, hasArg := strings.Cut(strings.TrimSpace(tok), ":")
		code := OpCode(-1)
		for c := OpCode(0); c < numOpCodes; c++ {
			if opNames[c] == name {
				code = c
				break
			}
		}
		if code < 0 {
			return nil, fmt.Errorf("check: unknown op %q", name)
		}
		op := Op{Code: code}
		if hasArg {
			arg, err := strconv.ParseUint(argStr, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("check: bad arg in %q: %v", tok, err)
			}
			op.Arg = uint32(arg)
		}
		out = append(out, op)
	}
	return out, nil
}

// opWeight is one row of the generation table.
type opWeight struct {
	code   OpCode
	weight int
}

// weights returns the generation table for a fault profile. Bit flips only
// make sense with an injector that can flip bits; glitched resets are an
// adversarial fault. Terminal ops are rare so most schedules explore a long
// live prefix, but common enough that power loss at every step boundary
// gets coverage across a campaign.
func weights(prof faults.Profile) []opWeight {
	w := []opWeight{
		{OpLock, 10},
		{OpUnlock, 10},
		{OpBadPIN, 2},
		{OpFgTouch, 10},
		{OpBgBegin, 6},
		{OpBgTouch, 10},
		{OpFreePage, 8},
		{OpPressure, 6},
		{OpFlushMasked, 6},
		{OpSuspend, 5},
		{OpWake, 5},
		{OpIdle, 4},
		{OpDrainZero, 4},
		{OpDMAScrape, 5},
		{OpPowerCut, 2},
		{OpHeldReset, 1},
	}
	if prof.BitFlipMax > 0 {
		w = append(w, opWeight{OpBitFlip, 5})
	}
	if prof.GlitchReset {
		w = append(w, opWeight{OpGlitchReset, 2})
	}
	return w
}

// opWeights returns the full generation table for a config: the fault-profile
// table plus one row per enabled cache attacker. A config without attacks
// generates exactly what the profile-only table always generated, so every
// pre-existing campaign, corpus entry, and wallclock budget is untouched.
func (c Config) opWeights() []opWeight {
	w := weights(c.Faults)
	for _, a := range c.attackList() {
		switch a {
		case AttackPrimeProbe:
			w = append(w, opWeight{OpPrimeProbe, 6})
		case AttackEvictReload:
			w = append(w, opWeight{OpEvictReload, 6})
		case AttackOccupancy:
			w = append(w, opWeight{OpOccupancy, 6})
		}
	}
	if c.DFA != "" {
		// A DFA campaign is fault-heavy by design: the attacker needs
		// several faulted ciphertexts per state column before a collect can
		// converge, so dfa-fault outweighs dfa-collect.
		w = append(w, opWeight{OpDFAFault, 14}, opWeight{OpDFACollect, 6})
	}
	return w
}

// GenerateFor draws a schedule from the config's full op alphabet —
// including the cache-attack ops when cfg.Attacks enables them.
func GenerateFor(cfg Config, rng *sim.RNG, steps int) Schedule {
	table := cfg.opWeights()
	total := 0
	for _, row := range table {
		total += row.weight
	}
	sched := make(Schedule, 0, steps)
	for i := 0; i < steps; i++ {
		pick := rng.Intn(total)
		var code OpCode
		for _, row := range table {
			if pick < row.weight {
				code = row.code
				break
			}
			pick -= row.weight
		}
		op := Op{Code: code, Arg: rng.Uint32() >> 8} // keep args printable-small
		sched = append(sched, op)
		if code.terminal() {
			break
		}
	}
	return sched
}
