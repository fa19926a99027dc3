// Fault-injection adversaries: composable, deterministically seeded
// channel decorators modelling the noisy, hostile radio conditions the
// paper's Dolev-Yao adversary induces — probabilistic loss, payload
// corruption, duplication, reordering, and scripted per-step faults.
// Each satisfies Adversary, so they slot unchanged into conformance
// runs, testbed replays and the threat model; each is driven by its own
// seeded PRNG, so a run is byte-for-byte reproducible from its seed.
package channel

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"prochecker/internal/nas"
	"prochecker/internal/resilience"
)

// FaultCounter is implemented by adversaries that can report how many
// faults they actually applied, for run summaries.
type FaultCounter interface {
	Faults() int
}

// Faults sums the fault counts of every FaultCounter in adv (walking
// into Chain stages); adversaries that cannot count contribute zero.
func Faults(adv Adversary) int {
	switch a := adv.(type) {
	case *Chain:
		n := 0
		for _, s := range a.Stages {
			n += Faults(s)
		}
		return n
	case FaultCounter:
		return a.Faults()
	default:
		return 0
	}
}

// FaultsByKind breaks the fault count down per fault kind ("drop",
// "corrupt", "dup", "reorder", "scheduled"), walking into Chain stages.
// Adversaries that injected nothing contribute no key, so a benign run
// yields an empty map.
func FaultsByKind(adv Adversary) map[string]int {
	out := make(map[string]int)
	addFaultsByKind(adv, out)
	return out
}

func addFaultsByKind(adv Adversary, out map[string]int) {
	add := func(kind string, n int) {
		if n > 0 {
			out[kind] += n
		}
	}
	switch a := adv.(type) {
	case *Chain:
		for _, s := range a.Stages {
			addFaultsByKind(s, out)
		}
	case *ProbDrop:
		add("drop", a.Faults())
	case *Corrupter:
		add("corrupt", a.Faults())
	case *Duplicator:
		add("dup", a.Faults())
	case *Reorderer:
		add("reorder", a.Faults())
	case *ScheduledFault:
		add("scheduled", a.Faults())
	case FaultCounter:
		add("other", a.Faults())
	}
}

// Chain composes adversaries into one: every packet emitted by stage i
// is fed through stage i+1, so a duplicate made early can still be
// corrupted or dropped later.
type Chain struct {
	Stages []Adversary
}

// Intercept implements Adversary.
func (c *Chain) Intercept(dir Direction, p nas.Packet) []nas.Packet {
	pkts := []nas.Packet{p}
	for _, stage := range c.Stages {
		var next []nas.Packet
		for _, q := range pkts {
			next = append(next, stage.Intercept(dir, q)...)
		}
		if len(next) == 0 {
			return nil
		}
		pkts = next
	}
	return pkts
}

var _ Adversary = (*Chain)(nil)

// matchDir reports whether a fault configured for want applies to dir;
// the zero Direction means both.
func matchDir(want, dir Direction) bool {
	return want == 0 || want == dir
}

// ProbDrop drops each matching packet independently with probability P —
// the lossy-link adversary.
type ProbDrop struct {
	Dir Direction // zero means both directions
	P   float64

	rng     *rand.Rand
	dropped int
}

// NewProbDrop builds a seeded probabilistic dropper.
func NewProbDrop(dir Direction, p float64, seed int64) *ProbDrop {
	return &ProbDrop{Dir: dir, P: p, rng: rand.New(rand.NewSource(seed))}
}

// Intercept implements Adversary.
func (d *ProbDrop) Intercept(dir Direction, p nas.Packet) []nas.Packet {
	if matchDir(d.Dir, dir) && d.rng.Float64() < d.P {
		d.dropped++
		return nil
	}
	return []nas.Packet{p}
}

// Faults implements FaultCounter.
func (d *ProbDrop) Faults() int { return d.dropped }

var _ Adversary = (*ProbDrop)(nil)

// Corrupter flips one random byte of the payload of each matching
// packet with probability P, modelling on-air bit errors and blind
// tampering. Header metadata is left intact (a real jammer corrupts the
// body it cannot parse); packets with empty payloads pass untouched.
type Corrupter struct {
	Dir Direction
	P   float64

	rng       *rand.Rand
	corrupted int
}

// NewCorrupter builds a seeded byte-corruption adversary.
func NewCorrupter(dir Direction, p float64, seed int64) *Corrupter {
	return &Corrupter{Dir: dir, P: p, rng: rand.New(rand.NewSource(seed))}
}

// Intercept implements Adversary.
func (c *Corrupter) Intercept(dir Direction, p nas.Packet) []nas.Packet {
	if matchDir(c.Dir, dir) && len(p.Payload) > 0 && c.rng.Float64() < c.P {
		out := p
		out.Payload = append([]byte(nil), p.Payload...)
		i := c.rng.Intn(len(out.Payload))
		// XOR with a non-zero mask so the byte always changes.
		out.Payload[i] ^= byte(1 + c.rng.Intn(255))
		c.corrupted++
		return []nas.Packet{out}
	}
	return []nas.Packet{p}
}

// Faults implements FaultCounter.
func (c *Corrupter) Faults() int { return c.corrupted }

var _ Adversary = (*Corrupter)(nil)

// Duplicator re-delivers each matching packet with probability P — the
// replaying relay that needs no protocol knowledge.
type Duplicator struct {
	Dir Direction
	P   float64

	rng        *rand.Rand
	duplicated int
}

// NewDuplicator builds a seeded duplication adversary.
func NewDuplicator(dir Direction, p float64, seed int64) *Duplicator {
	return &Duplicator{Dir: dir, P: p, rng: rand.New(rand.NewSource(seed))}
}

// Intercept implements Adversary.
func (d *Duplicator) Intercept(dir Direction, p nas.Packet) []nas.Packet {
	if matchDir(d.Dir, dir) && d.rng.Float64() < d.P {
		d.duplicated++
		return []nas.Packet{p, p}
	}
	return []nas.Packet{p}
}

// Faults implements FaultCounter.
func (d *Duplicator) Faults() int { return d.duplicated }

var _ Adversary = (*Duplicator)(nil)

// Reorderer delays packets to swap their delivery order: with
// probability P a matching packet is held back, and the next packet on
// the same direction is delivered ahead of it. A packet still held when
// the run ends is never delivered — indistinguishable, to the
// endpoints, from tail loss on a real air interface.
type Reorderer struct {
	Dir Direction
	P   float64

	rng       *rand.Rand
	held      map[Direction]*nas.Packet
	reordered int
}

// NewReorderer builds a seeded delay/reorder adversary.
func NewReorderer(dir Direction, p float64, seed int64) *Reorderer {
	return &Reorderer{
		Dir:  dir,
		P:    p,
		rng:  rand.New(rand.NewSource(seed)),
		held: make(map[Direction]*nas.Packet),
	}
}

// Intercept implements Adversary.
func (r *Reorderer) Intercept(dir Direction, p nas.Packet) []nas.Packet {
	if h := r.held[dir]; h != nil {
		r.held[dir] = nil
		return []nas.Packet{p, *h}
	}
	if matchDir(r.Dir, dir) && r.rng.Float64() < r.P {
		held := p
		r.held[dir] = &held
		r.reordered++
		return nil
	}
	return []nas.Packet{p}
}

// Faults implements FaultCounter.
func (r *Reorderer) Faults() int { return r.reordered }

var _ Adversary = (*Reorderer)(nil)

// FaultOp is one scripted fault a ScheduledFault applies.
type FaultOp uint8

// The scripted fault operations.
const (
	OpPass    FaultOp = iota // deliver untouched (explicit no-op)
	OpDrop                   // suppress the packet
	OpCorrupt                // flip one payload byte
	OpDup                    // deliver twice
)

// String implements fmt.Stringer.
func (o FaultOp) String() string {
	switch o {
	case OpPass:
		return "pass"
	case OpDrop:
		return "drop"
	case OpCorrupt:
		return "corrupt"
	case OpDup:
		return "dup"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// ScheduledFault applies a scripted fault at exact step numbers: the
// Nth matching packet (counting from 0 across both directions unless
// Dir narrows it) suffers Schedule[N]. It is fully deterministic with
// no PRNG at all — the tool for reproducing a one-packet perturbation,
// e.g. "drop exactly the third downlink message".
type ScheduledFault struct {
	Dir Direction
	// Schedule maps the matching-packet index to the fault applied to
	// it; unscheduled steps pass untouched.
	Schedule map[int]FaultOp

	step    int
	applied int
}

// Intercept implements Adversary.
func (s *ScheduledFault) Intercept(dir Direction, p nas.Packet) []nas.Packet {
	if !matchDir(s.Dir, dir) {
		return []nas.Packet{p}
	}
	op, scripted := s.Schedule[s.step]
	s.step++
	if !scripted || op == OpPass {
		return []nas.Packet{p}
	}
	s.applied++
	switch op {
	case OpDrop:
		return nil
	case OpCorrupt:
		out := p
		out.Payload = append([]byte(nil), p.Payload...)
		if len(out.Payload) > 0 {
			out.Payload[0] ^= 0xFF
		}
		return []nas.Packet{out}
	case OpDup:
		return []nas.Packet{p, p}
	default:
		return []nas.Packet{p}
	}
}

// Faults implements FaultCounter.
func (s *ScheduledFault) Faults() int { return s.applied }

var _ Adversary = (*ScheduledFault)(nil)

// FaultConfig declares a seeded fault mix. The zero value is benign.
type FaultConfig struct {
	// Seed drives every stage's PRNG; two runs with equal configs
	// produce identical fault decisions.
	Seed int64
	// Per-fault probabilities in [0, 1]; zero disables the stage.
	Drop      float64
	Corrupt   float64
	Duplicate float64
	Reorder   float64
}

// Enabled reports whether any fault stage is active.
func (c FaultConfig) Enabled() bool {
	return c.Drop > 0 || c.Corrupt > 0 || c.Duplicate > 0 || c.Reorder > 0
}

// String renders the config in ParseFaultSpec's syntax.
func (c FaultConfig) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", c.Drop)
	add("corrupt", c.Corrupt)
	add("dup", c.Duplicate)
	add("reorder", c.Reorder)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Build assembles the adversary chain for this config: reorder first
// (it restores packet multiplicity), then duplication, corruption and
// loss, each stage on its own seed-derived PRNG so adding one stage
// does not perturb another's decisions.
func (c FaultConfig) Build() Adversary {
	ch := &Chain{}
	if c.Reorder > 0 {
		ch.Stages = append(ch.Stages, NewReorderer(0, c.Reorder, c.Seed^0x5eed0001))
	}
	if c.Duplicate > 0 {
		ch.Stages = append(ch.Stages, NewDuplicator(0, c.Duplicate, c.Seed^0x5eed0002))
	}
	if c.Corrupt > 0 {
		ch.Stages = append(ch.Stages, NewCorrupter(0, c.Corrupt, c.Seed^0x5eed0003))
	}
	if c.Drop > 0 {
		ch.Stages = append(ch.Stages, NewProbDrop(0, c.Drop, c.Seed^0x5eed0004))
	}
	return ch
}

// AdversaryFactory derives one adversary per conformance case: case i
// runs under Seed+i, so cases are mutually independent yet the whole
// suite replays identically from the base seed.
func (c FaultConfig) AdversaryFactory() func(caseIndex int) Adversary {
	return func(caseIndex int) Adversary {
		cfg := c
		cfg.Seed = c.Seed + int64(caseIndex)
		return cfg.Build()
	}
}

// ParseFaultSpec parses the CLI fault syntax: comma-separated
// key=probability pairs, e.g. "drop=0.05,corrupt=0.02,dup=0.01,
// reorder=0.1". Keys: drop, corrupt, dup (or duplicate), reorder (or
// delay). The seed is supplied separately. A malformed spec is a usage
// error (resilience.ErrUsage).
func ParseFaultSpec(spec string, seed int64) (FaultConfig, error) {
	cfg := FaultConfig{Seed: seed}
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("channel: fault spec %q: want key=prob, got %q: %w", spec, part, resilience.ErrUsage)
		}
		p, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return cfg, fmt.Errorf("channel: fault spec %q: bad probability %q: %v: %w", spec, kv[1], err, resilience.ErrUsage)
		}
		if p < 0 || p > 1 {
			return cfg, fmt.Errorf("channel: fault spec %q: probability %g outside [0,1]: %w", spec, p, resilience.ErrUsage)
		}
		switch key := strings.ToLower(kv[0]); key {
		case "drop":
			cfg.Drop = p
		case "corrupt":
			cfg.Corrupt = p
		case "dup", "duplicate":
			cfg.Duplicate = p
		case "reorder", "delay":
			cfg.Reorder = p
		default:
			return cfg, fmt.Errorf("channel: fault spec %q: unknown fault %q (want %s): %w",
				spec, key, strings.Join(faultKeys(), "|"), resilience.ErrUsage)
		}
	}
	return cfg, nil
}

func faultKeys() []string {
	keys := []string{"drop", "corrupt", "dup", "reorder"}
	sort.Strings(keys)
	return keys
}
