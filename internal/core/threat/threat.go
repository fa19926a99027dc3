// Package threat is the adversarial model instrumentor (Section VI): it
// takes the UE FSM (UEᵘ, automatically extracted) and the MME FSM (MMEᵘ),
// connects them with two unidirectional public channels, and injects a
// Dolev-Yao adversary that may non-deterministically drop, replay or
// inject messages on either channel. The result IMPᵘ is a ts.System ready
// for the model checker, with every adversary rule tagged so the CEGAR
// loop can query the cryptographic protocol verifier about its
// feasibility.
//
// Predicates extracted from the implementation's sanity checks are given
// their threat-model semantics here: mac_valid=1 restricts a transition to
// genuine or replayed (never forged) messages, count_fresh=1 to genuine
// ones, count_fresh=0 to replays, and sqn_in_range under a replay stays
// non-deterministic — the Annex C out-of-order window decides, and the
// CPV adjudicates it during refinement.
package threat

import (
	"fmt"
	"strings"

	"prochecker/internal/core/fsmodel"
	"prochecker/internal/spec"
	"prochecker/internal/ts"
)

// Origins of a message sitting on a public channel.
const (
	OriginGenuine = "genuine"
	OriginReplay  = "replay"
	OriginInject  = "inject"
)

// Channel variable values: "none" or "<message>@<origin>".
const EmptyChannel = "none"

// Slot renders a channel occupancy value.
func Slot(m spec.MessageName, origin string) string {
	return string(m) + "@" + origin
}

// ParseSlot splits a channel value.
func ParseSlot(v string) (spec.MessageName, string, bool) {
	msg, origin, ok := strings.Cut(v, "@")
	if !ok {
		return "", "", false
	}
	return spec.MessageName(msg), origin, true
}

// Variable names of the composed system.
const (
	VarUEState  = "ue_state"
	VarMMEState = "mme_state"
	VarDL       = "chan_dl"
	VarUL       = "chan_ul"
	// VarProcGUTI is the supervision variable of the default GUTI
	// reallocation procedure.
	VarProcGUTI = "proc_guti_realloc"
)

// Supervision variable domain: idle, pending after the initial
// transmission and after each of the four retransmissions, and aborted
// (the paper's fifth-expiry abort).
var procDomain = []string{"idle", "p0", "p1", "p2", "p3", "p4", "aborted"}

// SupervisedProcedure describes a network-initiated procedure supervised
// by a retransmission timer (T3450 for GUTI reallocation in 4G, T3555
// for the configuration update procedure in 5G): the command is
// retransmitted four times and the procedure aborted on the fifth
// expiry — the machinery P3 exploits.
type SupervisedProcedure struct {
	// Name prefixes the supervision rules (mme:<Name>:start, ...).
	Name string
	// Command is the downlink message the procedure sends.
	Command spec.MessageName
	// Complete is the uplink message acknowledging it.
	Complete spec.MessageName
	// ReadyState is the network-side state the procedure starts from.
	ReadyState string
}

// Var returns the procedure's supervision variable name.
func (sp SupervisedProcedure) Var() string { return "proc_" + sp.Name }

// GUTIReallocationProcedure is the paper's 4G instance.
func GUTIReallocationProcedure() SupervisedProcedure {
	return SupervisedProcedure{
		Name:       "guti_realloc",
		Command:    spec.GUTIRealloCommand,
		Complete:   spec.GUTIRealloComplete,
		ReadyState: string(spec.MMERegistered),
	}
}

// Rule-name tags consumed by the CEGAR loop.
const (
	TagActor  = "actor"
	TagKind   = "kind"
	TagMsg    = "msg"
	TagOrigin = "origin"
	TagSQNOld = "sqn_stale_accept"
)

// Config parameterises the composition.
type Config struct {
	// Name labels the composed system.
	Name string
	// UE is the (typically extracted) UE model.
	UE *fsmodel.FSM
	// MME is the network-side model (typically ltemodels.MME()).
	MME *fsmodel.FSM
	// UEInternal supplies UE-initiated transitions to merge into the UE
	// model; nil selects DefaultUEInternal(). Pass an explicit empty
	// slice to merge none.
	UEInternal []fsmodel.Transition
	// SuperviseGUTIRealloc adds the T3450 retransmission/abort machinery
	// for the GUTI reallocation procedure (needed to reproduce P3's
	// five-drop denial); shorthand for adding
	// GUTIReallocationProcedure() to Supervise.
	SuperviseGUTIRealloc bool
	// Supervise lists additional supervised procedures (e.g. the 5G
	// configuration update procedure).
	Supervise []SupervisedProcedure
	// PlainOnAir overrides the message protection classification for
	// generations with different message sets (nil = spec.PlainOnAir).
	PlainOnAir func(spec.MessageName) bool
	// EagerObservationBits adds an observation bit for *every* channel
	// message up front and guards every replay rule on it, instead of
	// letting the CEGAR loop introduce the bits lazily when the CPV
	// refutes an unobserved replay. This is the ablation baseline for
	// the lazy-abstraction design: sound, but it multiplies the state
	// space by 2^messages.
	EagerObservationBits bool
}

// DefaultUEInternal returns the UE-initiated transitions every UE
// exhibits: starting attach, detach, TAU and service request. These are
// not extracted by Algorithm 1 (which keys on incoming messages) and are
// part of the composition environment, like LTEInspector's model.
func DefaultUEInternal() []fsmodel.Transition {
	mk := func(from, to spec.EMMState, action spec.MessageName) fsmodel.Transition {
		return fsmodel.Transition{
			From: fsmodel.State(from), To: fsmodel.State(to),
			Cond:    fsmodel.Condition{Message: spec.InternalEvent},
			Actions: []spec.MessageName{action},
		}
	}
	return []fsmodel.Transition{
		mk(spec.EMMDeregistered, spec.EMMRegisteredInitiated, spec.AttachRequest),
		mk(spec.EMMDeregisteredAttachNeeded, spec.EMMRegisteredInitiated, spec.AttachRequest),
		mk(spec.EMMRegistered, spec.EMMDeregInitiated, spec.DetachRequestUE),
		mk(spec.EMMRegistered, spec.EMMTAUInitiated, spec.TAURequest),
		mk(spec.EMMRegistered, spec.EMMServiceReqInitiated, spec.ServiceRequest),
	}
}

// originSet is a small set abstraction over the three origins.
type originSet map[string]bool

func allOrigins() originSet {
	return originSet{OriginGenuine: true, OriginReplay: true, OriginInject: true}
}

func (o originSet) intersect(allowed ...string) {
	keep := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		keep[a] = true
	}
	for origin := range o {
		if !keep[origin] {
			delete(o, origin)
		}
	}
}

// originsFor computes which message origins are consistent with a
// transition's predicates under the threat model's cryptographic
// semantics. The bool result reports whether the sqn_in_range=1 predicate
// was satisfied by a *stale replay* (the Annex C window), which the CPV
// must adjudicate.
func originsFor(cond fsmodel.Condition) (originSet, bool) {
	origins := allOrigins()
	staleSQNAccept := false
	for _, p := range cond.Predicates {
		switch p.Var {
		case string(spec.CondMACValid):
			if p.Value == "1" {
				origins.intersect(OriginGenuine, OriginReplay)
			} else {
				origins.intersect(OriginInject)
			}
		case string(spec.CondCountFresh):
			if p.Value == "1" {
				origins.intersect(OriginGenuine)
			} else {
				origins.intersect(OriginReplay)
			}
		case string(spec.CondSQNInRange), string(spec.CondSQNFresh):
			if p.Value == "1" {
				// Genuine challenges are always in range; stale replays
				// may be too, thanks to the SQN array (P1). Forgeries
				// never verify.
				origins.intersect(OriginGenuine, OriginReplay)
				if origins[OriginReplay] {
					staleSQNAccept = true
				}
			} else {
				origins.intersect(OriginReplay, OriginInject)
			}
		case "caps_match", "res_match", "auts_valid":
			if p.Value == "1" {
				origins.intersect(OriginGenuine, OriginReplay)
			} else {
				origins.intersect(OriginInject)
			}
		case string(spec.CondPlainHeader):
			// No origin constraint: plain messages are injectable,
			// protected ones are handled by mac_valid/count_fresh.
		default:
			// id_type, emm_cause, detach_type...: payload detail, no
			// origin constraint.
		}
	}
	return origins, staleSQNAccept
}

// defaultOrigins applies to predicate-free transitions (hand-built
// models): plain messages can be genuine, replayed or injected; protected
// ones only genuine under the conformant assumption.
func defaultOrigins(m spec.MessageName, plainOnAir func(spec.MessageName) bool) originSet {
	if plainOnAir == nil {
		plainOnAir = spec.PlainOnAir
	}
	if plainOnAir(m) {
		return allOrigins()
	}
	return originSet{OriginGenuine: true}
}

// Composed bundles the system with the metadata the CEGAR loop needs.
type Composed struct {
	System *ts.System
	Config Config
	// DLMessages / ULMessages are the message types appearing on each
	// channel (for adversary rule generation and property schemas).
	DLMessages []spec.MessageName
	ULMessages []spec.MessageName
	// ForceMergedDL / ForceMergedUL list supervised-procedure messages
	// that no extracted model mentioned and Compose had to merge into
	// the channel domains itself — visible evidence of a perturbed
	// extraction (lint reports them as PC006) instead of a silent patch.
	ForceMergedDL []spec.MessageName
	ForceMergedUL []spec.MessageName
}

// Generation exposes the instrumented system's mutation counter, so a
// caller holding a Composed can detect edits without reaching into the
// System. Model identity — what exploration caches and snapshots key
// on — is System.Fingerprint, not this counter.
func (c *Composed) Generation() uint64 {
	if c == nil || c.System == nil {
		return 0
	}
	return c.System.Generation()
}

// Compose builds IMPᵘ.
func Compose(cfg Config) (*Composed, error) {
	if cfg.UE == nil || cfg.MME == nil {
		return nil, fmt.Errorf("threat: both UE and MME models are required")
	}
	name := cfg.Name
	if name == "" {
		name = "IMP(" + cfg.UE.Name + ")"
	}

	ue := cfg.UE.Clone()
	internal := cfg.UEInternal
	if internal == nil {
		internal = DefaultUEInternal()
	}
	for _, tr := range internal {
		ue.AddTransition(tr)
	}
	mme := cfg.MME

	sys := ts.NewSystem(name)

	// --- Variables ---
	var ueStates, mmeStates []string
	for _, s := range ue.States() {
		ueStates = append(ueStates, string(s))
	}
	for _, s := range mme.States() {
		mmeStates = append(mmeStates, string(s))
	}
	if err := sys.AddVar(VarUEState, ueStates...); err != nil {
		return nil, err
	}
	if err := sys.AddVar(VarMMEState, mmeStates...); err != nil {
		return nil, err
	}

	supervised := append([]SupervisedProcedure{}, cfg.Supervise...)
	if cfg.SuperviseGUTIRealloc {
		supervised = append(supervised, GUTIReallocationProcedure())
	}
	cfg.Supervise = supervised

	dlMsgs := channelMessages(ue, mme, true)
	ulMsgs := channelMessages(ue, mme, false)
	// The supervision machinery puts its command on the downlink (and
	// expects the completion on the uplink) no matter what the extracted
	// models mention — an extraction perturbed by channel faults can miss
	// these messages entirely, and the domains must still admit them.
	// Each merge is recorded on the Composed so the lint phase can report
	// it (PC006) instead of the pipeline papering over the gap silently.
	var forcedDL, forcedUL []spec.MessageName
	for _, sp := range supervised {
		if merged := ensureMessage(dlMsgs, sp.Command); len(merged) != len(dlMsgs) {
			forcedDL = append(forcedDL, sp.Command)
			dlMsgs = merged
		}
		if merged := ensureMessage(ulMsgs, sp.Complete); len(merged) != len(ulMsgs) {
			forcedUL = append(forcedUL, sp.Complete)
			ulMsgs = merged
		}
	}
	dlDomain := []string{EmptyChannel}
	for _, m := range dlMsgs {
		for _, o := range []string{OriginGenuine, OriginReplay, OriginInject} {
			dlDomain = append(dlDomain, Slot(m, o))
		}
	}
	ulDomain := []string{EmptyChannel}
	for _, m := range ulMsgs {
		for _, o := range []string{OriginGenuine, OriginReplay, OriginInject} {
			ulDomain = append(ulDomain, Slot(m, o))
		}
	}
	if err := sys.AddVar(VarDL, dlDomain...); err != nil {
		return nil, err
	}
	if err := sys.AddVar(VarUL, ulDomain...); err != nil {
		return nil, err
	}
	for _, sp := range supervised {
		if err := sys.AddVar(sp.Var(), procDomain...); err != nil {
			return nil, err
		}
	}

	if err := sys.SetInit(VarUEState, string(ue.Initial)); err != nil {
		return nil, err
	}
	if err := sys.SetInit(VarMMEState, string(mme.Initial)); err != nil {
		return nil, err
	}

	// --- UE rules ---
	if err := addMachineRules(sys, ue, machineUE, cfg); err != nil {
		return nil, err
	}
	// --- MME rules ---
	if err := addMachineRules(sys, mme, machineMME, cfg); err != nil {
		return nil, err
	}
	// --- Supervised procedures (T3450 / T3555 style) ---
	for _, sp := range cfg.Supervise {
		if err := addSupervision(sys, mme, sp); err != nil {
			return nil, err
		}
	}
	// --- Adversary rules ---
	if err := addAdversaryRules(sys, VarDL, dlMsgs); err != nil {
		return nil, err
	}
	if err := addAdversaryRules(sys, VarUL, ulMsgs); err != nil {
		return nil, err
	}

	if cfg.EagerObservationBits {
		if err := addEagerObservation(sys, dlMsgs, ulMsgs); err != nil {
			return nil, err
		}
	}

	return &Composed{
		System: sys, Config: cfg,
		DLMessages: dlMsgs, ULMessages: ulMsgs,
		ForceMergedDL: forcedDL, ForceMergedUL: forcedUL,
	}, nil
}

// addEagerObservation applies the non-lazy abstraction: one observation
// bit per message, set whenever a genuine instance is placed on a
// channel, required by every replay rule. The exception is
// authentication_request, which is pre-capturable across sessions
// (Figure 4 phase 1) and therefore replayable from the start.
func addEagerObservation(sys *ts.System, dlMsgs, ulMsgs []spec.MessageName) error {
	all := append(append([]spec.MessageName{}, dlMsgs...), ulMsgs...)
	seen := make(map[spec.MessageName]bool)
	for _, m := range all {
		if seen[m] || m == spec.AuthRequest {
			seen[m] = true
			continue
		}
		seen[m] = true
		obsVar := "obs_" + string(m)
		if err := sys.AddVar(obsVar, "0", "1"); err != nil {
			return err
		}
		genuine := Slot(m, OriginGenuine)
		msg := string(m)
		sys.MapRules(func(r ts.Rule) ts.Rule {
			for _, a := range r.Assigns {
				if a.Value == genuine && (a.Var == VarDL || a.Var == VarUL) {
					r.Assigns = append(append([]ts.Assign{}, r.Assigns...), ts.Assign{Var: obsVar, Value: "1"})
					break
				}
			}
			if r.Tags[TagActor] == "adv" && r.Tags[TagKind] == "replay" && r.Tags[TagMsg] == msg {
				r.Guard = ts.And{r.Guard, ts.Eq{Var: obsVar, Value: "1"}}
			}
			return r
		})
	}
	return nil
}

type machineSide uint8

const (
	machineUE machineSide = iota + 1
	machineMME
)

// channelMessages collects the message types that can occupy a channel:
// for downlink, the UE's conditions and the MME's actions; vice versa for
// uplink.
func channelMessages(ue, mme *fsmodel.FSM, downlink bool) []spec.MessageName {
	set := make(map[spec.MessageName]bool)
	consumerConds, producerActs := ue.ConditionMessages(), mme.Actions()
	if !downlink {
		consumerConds, producerActs = mme.ConditionMessages(), ue.Actions()
	}
	for _, m := range consumerConds {
		if m != spec.InternalEvent {
			set[m] = true
		}
	}
	for _, m := range producerActs {
		if m != spec.NullAction {
			set[m] = true
		}
	}
	return spec.SortedMessageNames(set)
}

// ensureMessage adds m to a sorted message list if absent, keeping the
// canonical order.
func ensureMessage(msgs []spec.MessageName, m spec.MessageName) []spec.MessageName {
	set := make(map[spec.MessageName]bool, len(msgs)+1)
	for _, existing := range msgs {
		if existing == m {
			return msgs
		}
		set[existing] = true
	}
	set[m] = true
	return spec.SortedMessageNames(set)
}

// addMachineRules lowers one FSM's transitions into guarded commands.
func addMachineRules(sys *ts.System, m *fsmodel.FSM, side machineSide, cfg Config) error {
	stateVar, inVar, outVar := VarUEState, VarDL, VarUL
	actor := "ue"
	if side == machineMME {
		stateVar, inVar, outVar = VarMMEState, VarUL, VarDL
		actor = "mme"
	}
	for _, tr := range m.Transitions() {
		action := firstRealAction(tr.Actions)
		if tr.Cond.Message == spec.InternalEvent {
			// Internal transition: fires when the outgoing channel is
			// free (if it sends) and the machine is in the source state.
			guard := ts.And{ts.Eq{Var: stateVar, Value: string(tr.From)}}
			assigns := []ts.Assign{{Var: stateVar, Value: string(tr.To)}}
			if action != "" {
				guard = append(guard, ts.Eq{Var: outVar, Value: EmptyChannel})
				assigns = append(assigns, ts.Assign{Var: outVar, Value: Slot(action, OriginGenuine)})
			}
			name := fmt.Sprintf("%s:internal:%s->%s/%s", actor, tr.From, tr.To, actionLabel(action))
			if err := sys.AddRule(ts.Rule{
				Name: name, Guard: guard, Assigns: assigns,
				Tags: map[string]string{TagActor: actor, TagKind: "internal"},
			}); err != nil {
				return err
			}
			continue
		}

		var origins originSet
		var staleSQN bool
		if len(tr.Cond.Predicates) > 0 {
			origins, staleSQN = originsFor(tr.Cond)
		} else {
			origins = defaultOrigins(tr.Cond.Message, cfg.PlainOnAir)
		}
		for _, origin := range []string{OriginGenuine, OriginReplay, OriginInject} {
			if !origins[origin] {
				continue
			}
			guard := ts.And{
				ts.Eq{Var: stateVar, Value: string(tr.From)},
				ts.Eq{Var: inVar, Value: Slot(tr.Cond.Message, origin)},
			}
			assigns := []ts.Assign{
				{Var: stateVar, Value: string(tr.To)},
				{Var: inVar, Value: EmptyChannel},
			}
			if action != "" {
				guard = append(guard, ts.Eq{Var: outVar, Value: EmptyChannel})
				assigns = append(assigns, ts.Assign{Var: outVar, Value: Slot(action, OriginGenuine)})
			}
			// Completing a supervised procedure clears its pending state.
			if side == machineMME {
				for _, sp := range cfg.Supervise {
					if tr.Cond.Message == sp.Complete {
						assigns = append(assigns, ts.Assign{Var: sp.Var(), Value: "idle"})
					}
				}
			}
			tags := map[string]string{
				TagActor:  actor,
				TagKind:   "recv",
				TagMsg:    string(tr.Cond.Message),
				TagOrigin: origin,
			}
			if staleSQN && origin == OriginReplay {
				tags[TagSQNOld] = "1"
			}
			name := fmt.Sprintf("%s:recv:%s@%s:%s->%s/%s[%s]",
				actor, tr.Cond.Message, origin, tr.From, tr.To, actionLabel(action), tr.Cond.String())
			if err := sys.AddRule(ts.Rule{Name: name, Guard: guard, Assigns: assigns, Tags: tags}); err != nil {
				return err
			}
		}
	}
	return nil
}

// addSupervision adds one procedure's start/retransmit/abort machinery.
func addSupervision(sys *ts.System, mme *fsmodel.FSM, sp SupervisedProcedure) error {
	if !mme.HasState(fsmodel.State(sp.ReadyState)) {
		return fmt.Errorf("threat: network model lacks state %s needed to supervise %s", sp.ReadyState, sp.Name)
	}
	procVar := sp.Var()
	start := ts.Rule{
		Name: fmt.Sprintf("mme:%s:start", sp.Name),
		Guard: ts.And{
			ts.Eq{Var: VarMMEState, Value: sp.ReadyState},
			ts.Eq{Var: procVar, Value: "idle"},
			ts.Eq{Var: VarDL, Value: EmptyChannel},
		},
		Assigns: []ts.Assign{
			{Var: VarDL, Value: Slot(sp.Command, OriginGenuine)},
			{Var: procVar, Value: "p0"},
		},
		Tags: map[string]string{TagActor: "mme", TagKind: "proc_start", TagMsg: string(sp.Command)},
	}
	if err := sys.AddRule(start); err != nil {
		return err
	}
	pendings := []string{"p0", "p1", "p2", "p3", "p4"}
	for i := 0; i < len(pendings)-1; i++ {
		retx := ts.Rule{
			Name: fmt.Sprintf("mme:%s:timer_expiry_%d", sp.Name, i+1),
			Guard: ts.And{
				ts.Eq{Var: procVar, Value: pendings[i]},
				ts.Eq{Var: VarDL, Value: EmptyChannel},
			},
			Assigns: []ts.Assign{
				{Var: VarDL, Value: Slot(sp.Command, OriginGenuine)},
				{Var: procVar, Value: pendings[i+1]},
			},
			Tags: map[string]string{TagActor: "mme", TagKind: "timer", TagMsg: string(sp.Command)},
		}
		if err := sys.AddRule(retx); err != nil {
			return err
		}
	}
	abort := ts.Rule{
		Name: fmt.Sprintf("mme:%s:abort", sp.Name),
		Guard: ts.And{
			ts.Eq{Var: procVar, Value: "p4"},
			ts.Eq{Var: VarDL, Value: EmptyChannel},
		},
		Assigns: []ts.Assign{{Var: procVar, Value: "aborted"}},
		Tags:    map[string]string{TagActor: "mme", TagKind: "proc_abort", TagMsg: string(sp.Command)},
	}
	return sys.AddRule(abort)
}

// addAdversaryRules adds drop/replay/inject for one channel.
func addAdversaryRules(sys *ts.System, chanVar string, msgs []spec.MessageName) error {
	// Drop: one rule per occupancy value (so the dropped message is
	// identifiable in counterexamples).
	for _, m := range msgs {
		for _, origin := range []string{OriginGenuine, OriginReplay, OriginInject} {
			drop := ts.Rule{
				Name:    fmt.Sprintf("adv:drop:%s:%s@%s", chanVar, m, origin),
				Guard:   ts.Eq{Var: chanVar, Value: Slot(m, origin)},
				Assigns: []ts.Assign{{Var: chanVar, Value: EmptyChannel}},
				Tags:    map[string]string{TagActor: "adv", TagKind: "drop", TagMsg: string(m), TagOrigin: origin},
			}
			if err := sys.AddRule(drop); err != nil {
				return err
			}
		}
		replay := ts.Rule{
			Name:    fmt.Sprintf("adv:replay:%s:%s", chanVar, m),
			Guard:   ts.Eq{Var: chanVar, Value: EmptyChannel},
			Assigns: []ts.Assign{{Var: chanVar, Value: Slot(m, OriginReplay)}},
			Tags:    map[string]string{TagActor: "adv", TagKind: "replay", TagMsg: string(m)},
		}
		if err := sys.AddRule(replay); err != nil {
			return err
		}
		inject := ts.Rule{
			Name:    fmt.Sprintf("adv:inject:%s:%s", chanVar, m),
			Guard:   ts.Eq{Var: chanVar, Value: EmptyChannel},
			Assigns: []ts.Assign{{Var: chanVar, Value: Slot(m, OriginInject)}},
			Tags:    map[string]string{TagActor: "adv", TagKind: "inject", TagMsg: string(m)},
		}
		if err := sys.AddRule(inject); err != nil {
			return err
		}
	}
	return nil
}

func firstRealAction(actions []spec.MessageName) spec.MessageName {
	for _, a := range actions {
		if a != spec.NullAction {
			return a
		}
	}
	return ""
}

func actionLabel(a spec.MessageName) string {
	if a == "" {
		return string(spec.NullAction)
	}
	return string(a)
}
